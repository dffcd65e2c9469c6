(* MUT1: what one mutation of a resident session costs, as the
   hierarchy grows.

   For each size, a session opens over a [random_dag] with 24 member
   names, warms eight compiled columns (so [add_class] pays for
   extending them), and times the session's first mutation as its own
   row: it once built a whole incremental verdict table, and now costs
   what any [add_member] does.  Then it times [add_member] of fresh
   member names on random classes and [add_class] of new classes with
   random bases, one call at a time.

   Next to each latency row go two counts that do not depend on timing:
   the verdict rows recomputed ([Session.add_member]'s own report) and
   the closure rows built ([Metrics.closure_rows_computed]).  A mutation
   that costs what changed builds no closure row per [add_member] and
   one per [add_class]; the smoke check holds the 300-class size to
   exactly that, so a return to whole-closure recompute fails CI.

   Rows are labelled [(after)].  BENCH_lookup.json also holds
   [(before)] rows, measured once on the tree that recomputed the whole
   closure per mutation; the [mut] quick mode keeps them (see
   EXPERIMENTS.md, MUT1). *)

module G = Chg.Graph
module Session = Service.Session
module Metrics = Lookup_core.Metrics

let header id title = Format.printf "@.---- %s: %s ----@." id title

let members = List.init 24 (fun k -> Printf.sprintf "m%d" k)

let instance n =
  Hiergen.Families.random_dag ~n ~max_bases:3 ~virtual_prob:0.2
    ~declare_prob:0.1 ~members ~seed:17

(* [fs] (a BENCH_lookup.json row's fields) is one of the [(before)]
   rows *)
let before_row fs =
  match List.assoc_opt "family" fs with
  | Some (Telemetry.Json.String f) -> String.ends_with ~suffix:"(before)" f
  | _ -> false

type kind_stats = {
  hist : Telemetry.Histogram.t;
  mutable total_ns : int;
  mutable calls : int;
  mutable rows : int;  (* verdict rows recomputed *)
  mutable closure_rows : int;
}

let fresh () =
  { hist = Telemetry.Histogram.create (); total_ns = 0; calls = 0; rows = 0;
    closure_rows = 0 }

(* One timed mutation; [f] returns the verdict rows it recomputed. *)
let timed st f =
  let cr0 = Metrics.closure_rows_computed () in
  let c0 = Telemetry.Clock.now_ns () in
  let rows = f () in
  let ns = Telemetry.Clock.elapsed_ns ~since:c0 in
  Telemetry.Histogram.record st.hist ns;
  st.total_ns <- st.total_ns + ns;
  st.calls <- st.calls + 1;
  st.rows <- st.rows + rows;
  st.closure_rows <- st.closure_rows + (Metrics.closure_rows_computed () - cr0)

(* Runs [k] mutations of each kind on a session over [n] classes. *)
let run_size ~n ~k =
  let g = (instance n).Hiergen.Families.graph in
  let s = Session.create ~name:"mut" g in
  let st = Random.State.make [| n; 1997 |] in
  (* warm eight compiled columns past the promotion threshold *)
  List.iteri
    (fun i m ->
      if i < 8 then
        for c = 0 to 2 do
          ignore (Session.lookup s (G.name g (c * (n - 1) / 2)) m)
        done)
    members;
  let first = fresh () and am = fresh () and ac = fresh () in
  timed first (fun () ->
      fst (Session.add_member s ~cls:(G.name g 0) (G.member "first")));
  let affected = ref 0 in
  for i = 1 to k do
    let g = Session.graph s in
    let c = Random.State.int st (G.num_classes g) in
    let cls = G.name g c in
    affected :=
      !affected + 1
      + Chg.Bitset.cardinal (Chg.Closure.derived_of (Session.closure s) c);
    timed am (fun () ->
        fst (Session.add_member s ~cls (G.member (Printf.sprintf "new%d" i))))
  done;
  for i = 1 to k do
    let g = Session.graph s in
    let nc = G.num_classes g in
    let bases =
      List.sort_uniq compare
        (List.init (1 + Random.State.int st 3) (fun _ ->
             Random.State.int st nc))
      |> List.map (fun b -> (G.name g b, G.Non_virtual, G.Public))
    in
    timed ac (fun () ->
        ignore
          (Session.add_class s ~cls:(Printf.sprintf "N%d" i) ~bases
             ~members:[ G.member (Printf.sprintf "m%d" (i mod 24)) ]);
        1)
  done;
  (g, first, am, ac, !affected)

let mean_ms st = float_of_int st.total_ns /. float_of_int (max 1 st.calls) /. 1e6

let per_call total st = float_of_int total /. float_of_int (max 1 st.calls)

let record ~g ~kind st =
  Scaling.record ~experiment:"MUT1"
    ~family:(Printf.sprintf "%s (after)" kind)
    ~n_plus_e:(G.num_classes g + G.num_edges g)
    ~time_ns:(float_of_int st.total_ns /. float_of_int (max 1 st.calls))
    ~latency:st.hist
    (Telemetry.Json.Obj
       [ ("classes", Telemetry.Json.Int (G.num_classes g));
         ("mutations", Telemetry.Json.Int st.calls);
         ("rows_recomputed", Telemetry.Json.Int st.rows);
         ("closure_rows_computed", Telemetry.Json.Int st.closure_rows) ])

let sizes = [ (300, 40); (600, 40); (1200, 20); (2400, 10); (10_000, 4) ]

let run () =
  header "MUT1" "per-mutation cost vs hierarchy size";
  Format.printf "  latencies are per call (mean)@.";
  Format.printf "  %7s  %12s  %12s  %12s  %10s  %10s@." "classes"
    "first (ms)" "add_member" "add_class" "rows/a_m" "cl.rows/a_c";
  List.iter
    (fun (n, k) ->
      let g, first, am, ac, _ = run_size ~n ~k in
      Format.printf "  %7d  %12.2f  %9.3f ms  %9.3f ms  %10.1f  %10.1f@." n
        (mean_ms first) (mean_ms am) (mean_ms ac) (per_call am.rows am)
        (per_call ac.closure_rows ac);
      record ~g ~kind:"first mutation" first;
      record ~g ~kind:"add_member" am;
      record ~g ~kind:"add_class" ac)
    sizes

(* The CI guard: counts only, at 300 classes. *)
let smoke () =
  header "MUT1" "mutation work counts at 300 classes (smoke)";
  let _, first, am, ac, affected = run_size ~n:300 ~k:10 in
  Fig_tables.check
    "MUT1: the first mutation reuses the session's closure (0 rows built)"
    (first.closure_rows = 0);
  Fig_tables.check
    (Printf.sprintf "MUT1: add_member builds no closure row (%d over %d)"
       am.closure_rows am.calls)
    (am.closure_rows = 0);
  Fig_tables.check
    (Printf.sprintf "MUT1: add_class builds one closure row each (%d over %d)"
       ac.closure_rows ac.calls)
    (ac.closure_rows = ac.calls);
  Fig_tables.check
    (Printf.sprintf
       "MUT1: add_member recomputes exactly the class and its derived \
        classes (%d rows, %d expected)"
       am.rows affected)
    (am.rows = affected)
