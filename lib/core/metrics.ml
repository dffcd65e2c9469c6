type t = {
  enabled : bool;
  classes_visited : Telemetry.Counter.t;
  members_processed : Telemetry.Counter.t;
  edge_traversals : Telemetry.Counter.t;
  o_extensions : Telemetry.Counter.t;
  dominance_probes : Telemetry.Counter.t;
  declared_kills : Telemetry.Counter.t;
  red_verdicts : Telemetry.Counter.t;
  blue_verdicts : Telemetry.Counter.t;
  red_demotions : Telemetry.Counter.t;
  memo_hits : Telemetry.Counter.t;
  memo_misses : Telemetry.Counter.t;
  memo_recursive_fills : Telemetry.Counter.t;
  incr_rows : Telemetry.Counter.t;
  incr_row_members : Telemetry.Counter.t;
  incr_closure_bits : Telemetry.Counter.t;
  column_cost : Telemetry.Histogram.t;
      (* per-column edge-traversal cost distribution: one observation per
         compiled member column.  Deterministic for a given hierarchy, so
         per-domain histograms merged at join compare equal for any job
         count — the observability side of the determinism contract. *)
  build_timer : Telemetry.Timer.t;
  spans : Telemetry.Span.t;
  sink : Telemetry.Sink.t;
}

let make ~enabled ~sink =
  { enabled;
    classes_visited = Telemetry.Counter.make "classes_visited";
    members_processed = Telemetry.Counter.make "members_processed";
    edge_traversals = Telemetry.Counter.make "edge_traversals";
    o_extensions = Telemetry.Counter.make "o_extensions";
    dominance_probes = Telemetry.Counter.make "dominance_probes";
    declared_kills = Telemetry.Counter.make "declared_kills";
    red_verdicts = Telemetry.Counter.make "red_verdicts";
    blue_verdicts = Telemetry.Counter.make "blue_verdicts";
    red_demotions = Telemetry.Counter.make "red_demotions";
    memo_hits = Telemetry.Counter.make "memo_hits";
    memo_misses = Telemetry.Counter.make "memo_misses";
    memo_recursive_fills = Telemetry.Counter.make "memo_recursive_fills";
    incr_rows = Telemetry.Counter.make "incr_rows";
    incr_row_members = Telemetry.Counter.make "incr_row_members";
    incr_closure_bits = Telemetry.Counter.make "incr_closure_bits";
    column_cost = Telemetry.Histogram.create ();
    build_timer = Telemetry.Timer.make "build";
    spans = Telemetry.Span.make sink;
    sink }

let closure_rows_computed = Chg.Closure.rows_computed
let disabled = make ~enabled:false ~sink:Telemetry.Sink.null

let create ?(trace = false) ?trace_limit () =
  let sink =
    if trace then Telemetry.Sink.create ?limit:trace_limit ()
    else Telemetry.Sink.null
  in
  make ~enabled:true ~sink

let enabled m = m.enabled
let bump m c = if m.enabled then Telemetry.Counter.incr c
let bump_n m c n = if m.enabled then Telemetry.Counter.add c n
let observe_column m ~cost = if m.enabled then Telemetry.Histogram.record m.column_cost cost

let all_counters m =
  [ m.classes_visited; m.members_processed; m.edge_traversals;
    m.o_extensions; m.dominance_probes; m.declared_kills; m.red_verdicts;
    m.blue_verdicts; m.red_demotions; m.memo_hits; m.memo_misses;
    m.memo_recursive_fills; m.incr_rows; m.incr_row_members;
    m.incr_closure_bits ]

let counters m =
  List.map
    (fun c -> (Telemetry.Counter.name c, Telemetry.Counter.value c))
    (all_counters m)

(* Fold one bag's counts into another — the join step of a parallel
   build, where each worker domain bumped a private bag.  Counters and
   the column-cost histogram (whose merge is lossless): timers and
   sinks stay with the bag that recorded them. *)
let merge_into ~into m =
  if into.enabled then begin
    List.iter2
      (fun dst src -> Telemetry.Counter.add dst (Telemetry.Counter.value src))
      (all_counters into) (all_counters m);
    Telemetry.Histogram.merge_into ~into:into.column_cost m.column_cost
  end

let reset m =
  List.iter Telemetry.Counter.reset (all_counters m);
  Telemetry.Histogram.reset m.column_cost;
  Telemetry.Timer.reset m.build_timer;
  if Telemetry.Sink.enabled m.sink then Telemetry.Sink.clear m.sink

let pp_summary ppf m =
  List.iter
    (fun (name, v) ->
      if v <> 0 then Format.fprintf ppf "  %-22s %d@." name v)
    (counters m);
  if Telemetry.Timer.count m.build_timer > 0 then
    Format.fprintf ppf "  %a@." Telemetry.Timer.pp m.build_timer

let counters_json m =
  Telemetry.Json.Obj
    (List.map (fun (name, v) -> (name, Telemetry.Json.Int v)) (counters m))

let column_cost_json m =
  let h = m.column_cost in
  Telemetry.Json.Obj
    (("columns", Telemetry.Json.Int (Telemetry.Histogram.count h))
     :: ("sum", Telemetry.Json.Int (Telemetry.Histogram.sum h))
     :: List.map
          (fun (k, v) -> (k, Telemetry.Json.Int v))
          (Telemetry.Histogram.percentile_fields h))

let timers_json m =
  Telemetry.Json.Obj
    [ ( Telemetry.Timer.name m.build_timer,
        Telemetry.Json.Obj
          [ ("total_ns", Telemetry.Json.Int
               (Telemetry.Timer.total_ns m.build_timer));
            ("spans", Telemetry.Json.Int
               (Telemetry.Timer.count m.build_timer)) ] ) ]

(* Exposition: every counter as cxxlookup_engine_<name>_total plus the
   column-cost histogram, labelled (typically engine=eager/memo/...) so
   several bags coexist in one registry. *)
let register m ?(labels = []) registry =
  List.iter
    (fun c ->
      Telemetry.Registry.attach_counter registry ~labels
        ~help:
          (Printf.sprintf "Engine counter %s." (Telemetry.Counter.name c))
        (Printf.sprintf "cxxlookup_engine_%s_total"
           (Telemetry.Counter.name c))
        c)
    (all_counters m);
  Telemetry.Registry.attach_histogram registry ~labels
    ~help:"Per-compiled-column edge-traversal cost."
    "cxxlookup_engine_column_cost" m.column_cost
