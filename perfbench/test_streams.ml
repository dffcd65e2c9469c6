(* Self-check: a workload's stream is a pure function of its seed.  The
   same seed gives byte-identical wire bytes; another seed gives
   different ones.  Short runs keep the check fast. *)

let () =
  let failures = ref 0 in
  List.iter
    (fun w ->
      let bytes seed = Streams.wire_bytes (Streams.generate w ~seed ~seconds:2) in
      let a = bytes 1 and b = bytes 1 and c = bytes 2 in
      let ok = String.equal a b && not (String.equal a c) in
      Printf.printf "perfbench streams %-5s deterministic per seed: %s (%d bytes)\n"
        (Streams.name w) (if ok then "ok" else "FAILED") (String.length a);
      if not ok then incr failures)
    Streams.all;
  if !failures > 0 then exit 1
