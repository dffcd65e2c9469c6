(* The benchmark's own clock and statistics.

   Time comes from CLOCK_MONOTONIC through bechamel's stub, in
   nanoseconds, independently of the program's telemetry clock, so a
   change to that clock cannot move the benchmark.  Percentiles are
   computed from sorted raw samples (linear interpolation between
   closest ranks), never from histogram buckets. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

let seconds_since t0 = float_of_int (now_ns () - t0) /. 1e9

(* A growable float sample buffer. *)
type samples = { mutable data : float array; mutable len : int }

let samples () = { data = Array.make 1024 0.; len = 0 }

let add s x =
  if s.len = Array.length s.data then begin
    let d = Array.make (2 * s.len) 0. in
    Array.blit s.data 0 d 0 s.len;
    s.data <- d
  end;
  s.data.(s.len) <- x;
  s.len <- s.len + 1

let count s = s.len

let sorted s =
  let a = Array.sub s.data 0 s.len in
  Array.sort Float.compare a;
  a

(* [quantile sorted q] for q in [0, 1]; [nan] on no samples. *)
let quantile a q =
  let n = Array.length a in
  if n = 0 then Float.nan
  else begin
    let pos = q *. float_of_int (n - 1) in
    let i = int_of_float pos in
    let frac = pos -. float_of_int i in
    if i + 1 >= n then a.(n - 1) else a.(i) +. (frac *. (a.(i + 1) -. a.(i)))
  end

let percentile s q = quantile (sorted s) q

let median_of_list xs =
  let s = samples () in
  List.iter (add s) xs;
  percentile s 0.5
