(* Benchmark harness: regenerates every figure of the paper (F1-F9),
   runs the complexity experiments (C1-C5), the engine matchup (C6), and
   Bechamel microbenchmarks.  See DESIGN.md for the experiment index and
   EXPERIMENTS.md for paper-vs-measured notes.

   Run with: dune exec bench/main.exe *)

(* Ops counts alongside timings for every sweep point, so perf can be
   tracked across sessions in the paper's own unit operations.  The host
   header records where the wall-clock numbers came from — parallel
   (PAR1) speedups are meaningless without the core count. *)
let host_json () =
  Telemetry.Json.Obj
    [ ("hostname", Telemetry.Json.String (Unix.gethostname ()));
      ("ncores", Telemetry.Json.Int (Domain.recommended_domain_count ()));
      ("ocaml_version", Telemetry.Json.String Sys.ocaml_version) ]

let write_metrics ?entries () =
  let entries =
    match entries with
    | Some e -> e
    | None -> List.rev !Scaling.bench_records
  in
  let doc =
    Telemetry.Json.Obj
      [ ("schema", Telemetry.Json.String "cxxlookup-bench/1");
        ("host", host_json ());
        ("entries", Telemetry.Json.List entries) ]
  in
  Out_channel.with_open_text "BENCH_lookup.json" (fun oc ->
      Telemetry.Json.output oc doc);
  Format.printf "@.wrote BENCH_lookup.json (%d sweep points)@."
    (List.length entries)

(* The `srv`, `raw` and `mut` quick modes rerun one experiment but keep
   every other row: the existing file's entries minus the stale ones
   [stale] selects, plus the fresh records.  A missing or unparseable
   file degrades to the fresh rows alone. *)
let merge_entries ~stale fresh =
  let kept =
    match
      In_channel.with_open_text "BENCH_lookup.json" In_channel.input_all
    with
    | exception Sys_error _ -> []
    | text ->
      (match Raw_bench.Reader.parse text with
      | exception Raw_bench.Reader.Bad msg ->
        Format.printf
          "  note: BENCH_lookup.json unparseable (%s); keeping fresh rows \
           only@."
          msg;
        []
      | Telemetry.Json.Obj fields ->
        (match List.assoc_opt "entries" fields with
        | Some (Telemetry.Json.List l) ->
          List.filter
            (function Telemetry.Json.Obj fs -> not (stale fs) | _ -> true)
            l
        | _ -> [])
      | _ -> [])
  in
  kept @ fresh

let () =
  Format.printf "cxxlookup benchmark harness — ";
  Format.printf "A Member Lookup Algorithm for C++ (PLDI 1997)@.";
  (* `smoke` (make bench-smoke, CI) runs only the packed-table checks on
     a small family: determinism and the size floor, in seconds.  The
     full run regenerates every figure and BENCH_lookup.json. *)
  if Array.exists (String.equal "smoke") Sys.argv then begin
    Packed_bench.smoke ();
    Mro_bench.smoke ();
    Mut_bench.smoke ();
    Format.printf "@.%s@."
      (if !Fig_tables.checks_failed = 0 then "Smoke checks passed."
       else
         Printf.sprintf "%d CHECKS FAILED — see MISMATCH lines above."
           !Fig_tables.checks_failed);
    exit (if !Fig_tables.checks_failed = 0 then 0 else 1)
  end;
  (* `srv` runs only the networked-server experiment (seconds, for
     iterating on the server) and replaces its SRV1 rows in
     BENCH_lookup.json, keeping every other row. *)
  if Array.exists (String.equal "srv") Sys.argv then begin
    Srv_bench.run ();
    write_metrics
      ~entries:
        (merge_entries
           ~stale:(fun fs ->
             List.assoc_opt "experiment" fs
             = Some (Telemetry.Json.String "SRV1"))
           (List.rev !Scaling.bench_records))
      ();
    exit 0
  end;
  (* `clu` runs only the cluster experiment (router + replicas), for
     iterating on the cluster layer; the full run includes it too. *)
  if Array.exists (String.equal "clu") Sys.argv then begin
    Cluster_bench.run ();
    exit 0
  end;
  (* `raw` runs only the raw-speed-floor experiment and merges its rows
     into BENCH_lookup.json in place (other experiments' entries are
     kept); rows where mmap cannot engage are reported as skipped, not
     failed. *)
  if Array.exists (String.equal "raw") Sys.argv then begin
    Raw_bench.run ();
    write_metrics
      ~entries:
        (merge_entries
           ~stale:(fun fs ->
             List.assoc_opt "experiment" fs
             = Some (Telemetry.Json.String "RAW1"))
           (List.rev !Scaling.bench_records))
      ();
    Format.printf "@.%s@."
      (if !Fig_tables.checks_failed = 0 then "RAW1 checks passed."
       else
         Printf.sprintf "%d CHECKS FAILED — see MISMATCH lines above."
           !Fig_tables.checks_failed);
    exit (if !Fig_tables.checks_failed = 0 then 0 else 1)
  end;
  (* `mut` runs only MUT1 and replaces its `(after)` rows, keeping the
     `(before)` rows that record the cost of whole-closure recompute
     (see EXPERIMENTS.md, MUT1). *)
  if Array.exists (String.equal "mut") Sys.argv then begin
    Mut_bench.run ();
    write_metrics
      ~entries:
        (merge_entries
           ~stale:(fun fs ->
             List.assoc_opt "experiment" fs
             = Some (Telemetry.Json.String "MUT1")
             && not (Mut_bench.before_row fs))
           (List.rev !Scaling.bench_records))
      ();
    exit 0
  end;
  Fig_tables.run ();
  Scaling.run ();
  Ablation.run ();
  Matchup.run ();
  Throughput.run ();
  Lint_bench.run ();
  Mro_bench.run ();
  Store_bench.run ();
  Packed_bench.run ();
  Raw_bench.run ();
  Mut_bench.run ();
  Srv_bench.run ();
  Cluster_bench.run ();
  Becha.run ();
  write_metrics ();
  Format.printf "@.%s@."
    (if !Fig_tables.checks_failed = 0 then
       "All figure/experiment checks passed."
     else
       Printf.sprintf "%d CHECKS FAILED — see MISMATCH lines above."
         !Fig_tables.checks_failed);
  exit (if !Fig_tables.checks_failed = 0 then 0 else 1)
