let claim ~what filled n =
  if not (Atomic.compare_and_set filled n (n + 1)) then
    invalid_arg (what ^ ": only the newest snapshot can grow")

let grow a n fill =
  if n < Array.length a then a
  else begin
    let a' = Array.make (max 8 (2 * (n + 1))) fill in
    Array.blit a 0 a' 0 n;
    a'
  end
