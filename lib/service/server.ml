module J = Chg.Json
module G = Chg.Graph
module P = Protocol

(* Connection-level accounting for the networked front end (lib/net).
   The record lives here — not in lib/net — so the series are part of
   every server's registry and the `metrics`/`stats` verbs report them
   deterministically (all zero) in stdin/stdout mode too. *)
type net_stats = {
  net_active : int Atomic.t;  (* connections currently open *)
  net_admitted : int Atomic.t;  (* requests admitted, not yet answered *)
  net_accepted : Telemetry.Counter.t;
  net_closed : Telemetry.Counter.t;
  net_timed_out : Telemetry.Counter.t;  (* idle + slowloris closes *)
  net_overloaded : Telemetry.Counter.t;  (* explicit overload rejections *)
}

(* A [Follower] serves the read-only verbs only: every mutating verb is
   answered [not_leader], and its sessions change exclusively through
   the replication applier ({!install_snapshot} / {!apply_replicated}),
   which mirrors the leader's snapshot + WAL stream. *)
type role = Leader | Follower

type t = {
  role : role;
  config : Session.config;
  store : Store.t option;  (* durability, when serving --store *)
  sessions : (string, Session.t) Hashtbl.t;
  mutable session_order : string list;  (* open order, for stats *)
  mutable next_session : int;
  sink : Telemetry.Sink.t;
  spans : Telemetry.Span.t;
  requests : Telemetry.Counter.t;
  errors : Telemetry.Counter.t;
  sessions_opened : Telemetry.Counter.t;
  sessions_closed : Telemetry.Counter.t;
  lookups : Telemetry.Counter.t;
  batch_requests : Telemetry.Counter.t;
  batch_queries : Telemetry.Counter.t;
  mutations : Telemetry.Counter.t;
  lints : Telemetry.Counter.t;
  (* request-level observability *)
  registry : Telemetry.Registry.t;
  start_ns : int;
  mutable next_seq : int;  (* arrival order, 1-based in the log *)
  request_log : Request_log.t option;
  slow_ns : int option;  (* latency threshold; None = nothing is slow *)
  slow_requests : Telemetry.Counter.t;
  flight : Request_log.recorder;
  frame_decode_ns : Telemetry.Histogram.t;
      (* time to parse + type one binary (1b) frame, recorded for every
         frame whether or not it decodes — the framing-overhead series
         the JSON path's parse cost is compared against *)
  net : net_stats;
  inflight : (string * int Atomic.t) list;  (* per-verb, fixed at create *)
  obs_mutex : Mutex.t;
      (* serializes [observe] and exposition renders across worker
         domains: per-request accounting (histogram record, seq, ring,
         log line) commits atomically with respect to scrapes, so
         Expocheck's monotonicity contract holds under concurrency *)
}

let verbs =
  [ "open"; "lookup"; "batch_lookup"; "mutate"; "lint"; "snapshot";
    "restore"; "stats"; "metrics"; "symbols"; "close" ]

let create ?(role = Leader) ?(config = Session.default_config)
    ?(trace = false) ?store ?request_log ?slow_ms () =
  let sink =
    if trace then Telemetry.Sink.create () else Telemetry.Sink.null
  in
  let registry = Telemetry.Registry.create () in
  let slow_requests = Telemetry.Counter.make "slow_requests" in
  (* registered eagerly so the series exists (empty) before the first
     binary frame arrives — metrics goldens rely on it *)
  let frame_decode_ns =
    Telemetry.Registry.histogram registry
      ~help:"Binary (cxxlookup-rpc/1b) frame decode time, nanoseconds."
      "cxxlookup_server_frame_decode_ns"
  in
  let net =
    { net_active = Atomic.make 0;
      net_admitted = Atomic.make 0;
      net_accepted = Telemetry.Counter.make "connections_accepted";
      net_closed = Telemetry.Counter.make "connections_closed";
      net_timed_out = Telemetry.Counter.make "connections_timed_out";
      net_overloaded = Telemetry.Counter.make "overloaded" }
  in
  let t =
    { role;
      config;
      store;
      sessions = Hashtbl.create 8;
      session_order = [];
      next_session = 0;
      sink;
      spans = Telemetry.Span.make sink;
      requests = Telemetry.Counter.make "requests";
      errors = Telemetry.Counter.make "errors";
      sessions_opened = Telemetry.Counter.make "sessions_opened";
      sessions_closed = Telemetry.Counter.make "sessions_closed";
      lookups = Telemetry.Counter.make "lookups";
      batch_requests = Telemetry.Counter.make "batch_requests";
      batch_queries = Telemetry.Counter.make "batch_queries";
      mutations = Telemetry.Counter.make "mutations";
      lints = Telemetry.Counter.make "lints";
      registry;
      start_ns = Telemetry.Clock.now_ns ();
      next_seq = 0;
      request_log;
      slow_ns = Option.map (fun ms -> ms * 1_000_000) slow_ms;
      slow_requests;
      flight = Telemetry.Ring.create Request_log.default_flight_capacity;
      frame_decode_ns;
      net;
      inflight = List.map (fun v -> (v, Atomic.make 0)) verbs;
      obs_mutex = Mutex.create () }
  in
  Telemetry.Registry.gauge registry
    ~help:"Nanoseconds since this server was created."
    "cxxlookup_server_uptime_ns"
    (fun () -> Telemetry.Clock.now_ns () - t.start_ns);
  Telemetry.Registry.gauge registry ~help:"Sessions currently open."
    "cxxlookup_server_sessions_open"
    (fun () -> Hashtbl.length t.sessions);
  Telemetry.Registry.attach_counter registry
    ~help:"Requests whose latency crossed the --slow-ms threshold."
    "cxxlookup_server_slow_requests_total" slow_requests;
  Telemetry.Registry.gauge registry
    ~help:"Connections currently open on the networked server."
    "cxxlookup_server_connections_active"
    (fun () -> Atomic.get net.net_active);
  Telemetry.Registry.gauge registry
    ~help:"Requests admitted and not yet answered (global admission queue depth)."
    "cxxlookup_server_admission_queue_depth"
    (fun () -> Atomic.get net.net_admitted);
  Telemetry.Registry.attach_counter registry
    ~help:"Connections accepted by the networked server."
    "cxxlookup_server_connections_accepted_total" net.net_accepted;
  Telemetry.Registry.attach_counter registry
    ~help:"Connections closed (any reason, including timeouts)."
    "cxxlookup_server_connections_closed_total" net.net_closed;
  Telemetry.Registry.attach_counter registry
    ~help:"Connections closed by the idle or slowloris timeout."
    "cxxlookup_server_connections_timed_out_total" net.net_timed_out;
  Telemetry.Registry.attach_counter registry
    ~help:"Requests rejected with the overloaded error code."
    "cxxlookup_server_overloaded_total" net.net_overloaded;
  List.iter
    (fun (verb, gauge) ->
      Telemetry.Registry.gauge registry
        ~help:"Requests currently executing, by verb."
        ~labels:[ ("verb", verb) ]
        "cxxlookup_server_inflight"
        (fun () -> Atomic.get gauge))
    t.inflight;
  (match store with None -> () | Some s -> Store.register s registry);
  t

let sink t = t.sink
let role t = t.role
let store t = t.store
let registry t = t.registry
let net t = t.net
let uptime_ns t = Telemetry.Clock.now_ns () - t.start_ns
let dump_flight t oc = Request_log.dump t.flight oc

let counters t =
  List.map
    (fun c -> (Telemetry.Counter.name c, Telemetry.Counter.value c))
    [ t.requests; t.errors; t.sessions_opened; t.sessions_closed;
      t.lookups; t.batch_requests; t.batch_queries; t.mutations; t.lints ]

(* ---- per-verb handlers --------------------------------------------- *)

exception Reply_error of P.error_code * string

let fail code fmt = Printf.ksprintf (fun msg -> raise (Reply_error (code, msg))) fmt

let session t = function
  | None -> fail P.Bad_request "missing field \"session\""
  | Some name ->
    (match Hashtbl.find_opt t.sessions name with
    | Some s -> s
    | None -> fail P.Unknown_session "no open session %S" name)

let graph_of_hierarchy = function
  | P.Chg_json j ->
    (match Chg.Serialize.of_json j with
    | Ok g -> g
    | Error msg -> fail P.Bad_hierarchy "%s" msg)
  | P.Source src ->
    let r = Frontend.Sema.analyze_source src in
    if not (Frontend.Sema.ok r) then
      fail P.Bad_hierarchy "source has errors: %s"
        (match r.Frontend.Sema.diagnostics with
        | d :: _ -> Frontend.Diagnostic.to_string d
        | [] -> "unknown");
    r.Frontend.Sema.graph

(* ---- durability ----------------------------------------------------

   Under a store, a session is durable from birth: [open] writes its
   epoch-0 snapshot (superseding any previous lineage stored under the
   name), every applied mutation appends one WAL record, and an
   outgrown WAL is compacted into a fresh snapshot.  [snapshot] forces
   that compaction; [restore] reopens from the newest valid snapshot
   plus the WAL tail. *)

let store_mutation_of = function
  | P.Add_class { mc_name; mc_bases; mc_members } ->
    Store.Mutation.Add_class
      { ac_name = mc_name; ac_bases = mc_bases; ac_members = mc_members }
  | P.Add_member { mm_class; mm_member } ->
    Store.Mutation.Add_member { am_class = mm_class; am_member = mm_member }

let snapshot_of_session s =
  { Store.Snapshot.s_session = Session.name s;
    s_epoch = Session.epoch s;
    s_protocol = P.version;
    s_graph = Session.graph s;
    s_columns = Session.compiled_columns s }

let write_snapshot store s =
  try Store.write_snapshot store (snapshot_of_session s)
  with Sys_error msg | Unix.Unix_error (_, msg, _) ->
    fail P.Store_error "snapshot failed: %s" msg

let log_mutation t s m =
  match t.store with
  | None -> ()
  | Some store ->
    let session = Session.name s in
    Store.log_mutation store ~session ~epoch:(Session.epoch s)
      (store_mutation_of m);
    if Store.needs_compaction store ~session then begin
      Store.note_compaction store;
      ignore (write_snapshot store s)
    end

let register_session t s =
  let name = Session.name s in
  Hashtbl.add t.sessions name s;
  t.session_order <- t.session_order @ [ name ];
  Telemetry.Counter.incr t.sessions_opened;
  Session.register s t.registry

let handle_open t ~session:requested hierarchy =
  let name =
    match requested with
    | Some n ->
      if Hashtbl.mem t.sessions n then
        fail P.Duplicate_session "session %S is already open" n;
      n
    | None ->
      let rec pick () =
        let n = Printf.sprintf "s%d" t.next_session in
        t.next_session <- t.next_session + 1;
        if Hashtbl.mem t.sessions n then pick () else n
      in
      pick ()
  in
  let g = graph_of_hierarchy hierarchy in
  let s = Session.create ~config:t.config ~name g in
  (match t.store with
  | None -> ()
  | Some store ->
    Store.reset_session store name;
    ignore (write_snapshot store s));
  register_session t s;
  [ ("protocol", J.String P.version);
    ("session", J.String name);
    ("classes", J.Int (G.num_classes g));
    ("edges", J.Int (G.num_edges g));
    ("members", J.Int (List.length (G.member_names g))) ]

let query_fields s (q : P.query) =
  match Session.lookup s q.P.q_class q.P.q_member with
  | Error cls -> fail P.Unknown_class "unknown class %S" cls
  | Ok (v, served) ->
    ("class", J.String q.P.q_class)
    :: ("member", J.String q.P.q_member)
    :: P.verdict_fields (Session.graph s) v
         [ ("via", J.String (Session.served_string served)) ]

(* The linearized-semantics twin of [query_fields]: answered from the
   session's per-variant MRO table, reported as ["via":"mro"] with the
   variant echoed, so C++-semantics responses stay byte-identical. *)
let mro_query_fields s v (q : P.query) =
  match Session.mro_lookup s v q.P.q_class q.P.q_member with
  | Error cls -> fail P.Unknown_class "unknown class %S" cls
  | Ok verdict ->
    ("class", J.String q.P.q_class)
    :: ("member", J.String q.P.q_member)
    :: P.verdict_fields (Session.graph s) verdict
         [ ("semantics", J.String (Mro.variant_string v));
           ("via", J.String "mro") ]

let handle_lookup t s sem q =
  Telemetry.Counter.incr t.lookups;
  match sem with
  | Mro.Cpp -> query_fields s q
  | Mro.Linearized v -> mro_query_fields s v q

let handle_batch t s sem qs =
  Telemetry.Counter.incr t.batch_requests;
  Telemetry.Counter.add t.batch_queries (List.length qs);
  let resolved = ref 0 and ambiguous = ref 0 and not_found = ref 0 in
  let count v =
    match v with
    | Some (Lookup_core.Engine.Red _) -> incr resolved
    | Some (Lookup_core.Engine.Blue _) -> incr ambiguous
    | None -> incr not_found
  in
  let unknown_class (q : P.query) cls =
    J.Obj
      [ ("class", J.String q.P.q_class);
        ("member", J.String q.P.q_member);
        ("error", J.String "unknown_class");
        ("message", J.String (Printf.sprintf "unknown class %S" cls)) ]
  in
  let results =
    List.map
      (fun (q : P.query) ->
        match sem with
        | Mro.Cpp ->
          (match Session.lookup s q.P.q_class q.P.q_member with
          | Error cls -> unknown_class q cls
          | Ok (v, served) ->
            count v;
            J.Obj
              (("class", J.String q.P.q_class)
               :: ("member", J.String q.P.q_member)
               :: P.verdict_fields (Session.graph s) v
                    [ ("via", J.String (Session.served_string served)) ]))
        | Mro.Linearized variant ->
          (match
             Session.mro_lookup s variant q.P.q_class q.P.q_member
           with
          | Error cls -> unknown_class q cls
          | Ok v ->
            count v;
            J.Obj
              (("class", J.String q.P.q_class)
               :: ("member", J.String q.P.q_member)
               :: P.verdict_fields (Session.graph s) v
                    [ ("semantics", J.String (Mro.variant_string variant));
                      ("via", J.String "mro") ])))
      qs
  in
  [ ("results", J.List results);
    ("resolved", J.Int !resolved);
    ("ambiguous", J.Int !ambiguous);
    ("not_found", J.Int !not_found) ]

let handle_mutate t s m =
  match m with
  | P.Add_class { mc_name; mc_bases; mc_members } ->
    Telemetry.Counter.incr t.mutations;
    (try
       ignore (Session.add_class s ~cls:mc_name ~bases:mc_bases
                 ~members:mc_members);
       log_mutation t s m;
       [ ("session", J.String (Session.name s));
         ("added", J.String mc_name);
         ("classes", J.Int (G.num_classes (Session.graph s)));
         ("epoch", J.Int (Session.epoch s)) ]
     with G.Error e ->
       let code =
         match e with
         | G.Unknown_class _ | G.Unknown_base _ -> P.Unknown_class
         | _ -> P.Bad_hierarchy
       in
       fail code "%s" (G.error_to_string e))
  | P.Add_member { mm_class; mm_member } ->
    Telemetry.Counter.incr t.mutations;
    (try
       let rows, invalidated = Session.add_member s ~cls:mm_class mm_member in
       log_mutation t s m;
       [ ("session", J.String (Session.name s));
         ("class", J.String mm_class);
         ("member", J.String mm_member.G.m_name);
         ("rows_recomputed", J.Int rows);
         ("table_invalidated", J.Bool invalidated);
         ("epoch", J.Int (Session.epoch s)) ]
     with G.Error e ->
       let code =
         match e with
         | G.Unknown_class _ -> P.Unknown_class
         | _ -> P.Bad_hierarchy
       in
       fail code "%s" (G.error_to_string e))

let handle_lint t s sem rules =
  Telemetry.Counter.incr t.lints;
  let rules =
    match rules with
    | None -> Lint.Rule.default_rules
    | Some ids ->
      (match ids with
      | [] -> fail P.Bad_request "empty rule list"
      | _ ->
        List.map
          (fun id ->
            match Lint.Rule.of_string id with
            | Some r -> r
            | None -> fail P.Bad_request "unknown lint rule %S" id)
          ids)
  in
  let findings =
    Lint.run
      ~config:{ Lint.default_config with rules }
      ~semantics:sem
      ~jobs:t.config.Session.jobs
      (Session.closure s)
  in
  let errors, warnings, notes = Lint.summary findings in
  let per_rule =
    List.filter_map
      (fun r ->
        match
          List.length (List.filter (fun f -> f.Lint.f_rule = r) findings)
        with
        | 0 -> None
        | n -> Some (Lint.Rule.to_string r, J.Int n))
      Lint.Rule.all
  in
  [ ("session", J.String (Session.name s));
    ("epoch", J.Int (Session.epoch s));
    ("diagnostics", J.List (List.map (fun f -> Lint.finding_json f) findings));
    ("errors", J.Int errors);
    ("warnings", J.Int warnings);
    ("notes", J.Int notes);
    ("rules", J.Obj per_rule) ]

let handle_snapshot t s =
  match t.store with
  | None ->
    fail P.Store_error "no store configured (run: cxxlookup serve --store DIR)"
  | Some store ->
    let bytes = write_snapshot store s in
    [ ("session", J.String (Session.name s));
      ("epoch", J.Int (Session.epoch s));
      ("bytes", J.Int bytes) ]

(* Rebuild a session from a recovery: restore the snapshot (graph +
   compiled columns), then replay the WAL tail through the session's
   normal mutation path — but never back into the WAL, which already
   holds these records. *)
let session_of_recovery t name rv =
  let snap = rv.Store.rv_snapshot in
  let s =
    Session.restore ~config:t.config ~name
      ~epoch:snap.Store.Snapshot.s_epoch
      ~columns:snap.Store.Snapshot.s_columns snap.Store.Snapshot.s_graph
  in
  List.iter
    (fun (r : Store.Wal.record) ->
      match r.Store.Wal.rc_mutation with
      | Store.Mutation.Add_class { ac_name; ac_bases; ac_members } ->
        ignore
          (Session.add_class s ~cls:ac_name ~bases:ac_bases
             ~members:ac_members)
      | Store.Mutation.Add_member { am_class; am_member } ->
        ignore (Session.add_member s ~cls:am_class am_member))
    rv.Store.rv_replayed;
  s

let handle_restore t ~session:requested =
  match t.store with
  | None ->
    fail P.Store_error "no store configured (run: cxxlookup serve --store DIR)"
  | Some store ->
    let name =
      match requested with
      | None -> fail P.Bad_request "missing field \"session\""
      | Some n -> n
    in
    if Hashtbl.mem t.sessions name then
      fail P.Duplicate_session "session %S is already open" name;
    (match Store.recover store name with
    | Error msg -> fail P.Store_error "%s" msg
    | Ok None -> fail P.Store_error "nothing stored under session %S" name
    | Ok (Some rv) ->
      let s =
        try session_of_recovery t name rv
        with G.Error e ->
          fail P.Store_error "replay failed: %s" (G.error_to_string e)
      in
      register_session t s;
      [ ("protocol", J.String P.version);
        ("session", J.String name);
        ("epoch", J.Int (Session.epoch s));
        ("classes", J.Int (G.num_classes (Session.graph s)));
        ("replayed", J.Int (List.length rv.Store.rv_replayed));
        ("torn_tail", J.Bool rv.Store.rv_torn) ])

(* The interned-id tables for the binary hot path: class ids are graph
   ids, member ids the session's dense intern order.  Served over JSON
   too, so a client can bootstrap ids before switching framing. *)
let handle_symbols s =
  let epoch, classes, members = Session.symbols s in
  let strings a = J.List (Array.to_list (Array.map (fun n -> J.String n) a)) in
  [ ("session", J.String (Session.name s));
    ("epoch", J.Int epoch);
    ("classes", strings classes);
    ("members", strings members) ]

let handle_metrics t =
  (* render under the observation mutex: a scrape never sees a request
     whose histogram bump landed but whose counter bump has not *)
  let body =
    Mutex.protect t.obs_mutex (fun () ->
        Telemetry.Prometheus.render t.registry)
  in
  [ ("format", J.String "text/plain; version=0.0.4");
    ("body", J.String body) ]

let render_metrics t =
  Mutex.protect t.obs_mutex (fun () -> Telemetry.Prometheus.render t.registry)

(* Per-verb and per-error-code views out of the registry: the same
   labelled series the exposition renders, re-shaped as a JSON object.
   find_values is sorted, so the object's key order is stable. *)
let labelled_counts t metric label =
  List.filter_map
    (fun (labels, v) ->
      match List.assoc_opt label labels with
      | Some key -> Some (key, J.Int v)
      | None -> None)
    (Telemetry.Registry.find_values t.registry metric)

let handle_stats t = function
  | Some _ as sess ->
    let s = session t sess in
    [ ("protocol", J.String P.version);
      ("session", J.String (Session.name s));
      ("epoch", J.Int (Session.epoch s));
      ("stats", Session.stats_json s) ]
  | None ->
    let open_sessions =
      List.filter (fun n -> Hashtbl.mem t.sessions n) t.session_order
    in
    let store_fields =
      match t.store with
      | None -> []
      | Some store ->
        [ ( "store",
            J.Obj
              (("dir", J.String (Store.dir store))
               :: List.map
                    (fun (k, v) -> (k, J.Int v))
                    (Store.counters store)) ) ]
    in
    [ ("protocol", J.String P.version);
      ( "service",
        J.Obj
          (List.map (fun (k, v) -> (k, J.Int v)) (counters t)
           @ [ ("sessions_open", J.Int (Hashtbl.length t.sessions));
               ("uptime_ns", J.Int (uptime_ns t));
               ( "verbs",
                 J.Obj
                   (labelled_counts t "cxxlookup_server_requests_total"
                      "verb") );
               ( "error_codes",
                 J.Obj
                   (labelled_counts t "cxxlookup_server_errors_total"
                      "code") );
               ( "net",
                 J.Obj
                   [ ("connections_active", J.Int (Atomic.get t.net.net_active));
                     ( "connections_accepted",
                       J.Int (Telemetry.Counter.value t.net.net_accepted) );
                     ( "connections_closed",
                       J.Int (Telemetry.Counter.value t.net.net_closed) );
                     ( "connections_timed_out",
                       J.Int (Telemetry.Counter.value t.net.net_timed_out) );
                     ( "admission_queue_depth",
                       J.Int (Atomic.get t.net.net_admitted) );
                     ( "overloaded",
                       J.Int (Telemetry.Counter.value t.net.net_overloaded) )
                   ] ) ]) );
      ( "sessions",
        J.List
          (List.map
             (fun n -> Session.stats_json (Hashtbl.find t.sessions n))
             open_sessions) ) ]
    @ store_fields

let handle_close t s =
  let name = Session.name s in
  Hashtbl.remove t.sessions name;
  Telemetry.Counter.incr t.sessions_closed;
  (* durable state outlives the close; make sure it is actually on disk *)
  (match t.store with None -> () | Some store -> Store.sync store);
  [ ("session", J.String name); ("closed", J.Bool true) ]

let op_name = P.op_string

(* One finished request: per-verb latency histogram and request
   counter, per-error-code counter, slow-threshold accounting, a
   flight-recorder push, and (when configured) one JSON log line.
   Registry lookups are find-or-create — one hash probe each on the
   steady path.  The response line's byte count is measured only when
   the log is on: measuring means re-serializing the response. *)
(* [frame_bytes]/[via] are the binary path's overrides: a frame response
   is not a JSON document, so its byte count and serving layer arrive
   precomputed instead of being re-derived from [resp]. *)
let observe ?conn ?frame_bytes ?via t ~verb ~session ~id ~t0 ~outcome resp =
  let latency = Telemetry.Clock.elapsed_ns ~since:t0 in
  Mutex.protect t.obs_mutex @@ fun () ->
  Telemetry.Histogram.record
    (Telemetry.Registry.histogram t.registry
       ~help:"Request latency by verb, nanoseconds."
       ~labels:[ ("verb", verb) ]
       "cxxlookup_server_request_duration_ns")
    latency;
  Telemetry.Counter.incr
    (Telemetry.Registry.counter t.registry
       ~help:"Requests handled, by verb (rejected lines count as verb=invalid)."
       ~labels:[ ("verb", verb) ]
       "cxxlookup_server_requests_total");
  if outcome <> "ok" then
    Telemetry.Counter.incr
      (Telemetry.Registry.counter t.registry
         ~help:"Error responses, by code."
         ~labels:[ ("code", outcome) ]
         "cxxlookup_server_errors_total");
  let slow = match t.slow_ns with Some s -> latency >= s | None -> false in
  if slow then Telemetry.Counter.incr t.slow_requests;
  t.next_seq <- t.next_seq + 1;
  let bytes =
    match (frame_bytes, t.request_log) with
    | Some n, _ -> n
    | None, Some _ -> String.length (J.to_string resp)
    | None, None -> 0
  in
  let via =
    match via with
    | Some _ as v -> v
    | None ->
      (match J.member "via" resp with
      | Ok (J.String v) -> Some v
      | _ -> None)
  in
  let entry =
    { Request_log.e_seq = t.next_seq; e_conn = conn; e_verb = verb;
      e_session = session;
      e_id = id; e_outcome = outcome; e_latency_ns = latency;
      e_bytes = bytes; e_via = via; e_slow = slow }
  in
  Telemetry.Ring.push t.flight entry;
  match t.request_log with
  | Some lg -> Request_log.log lg entry
  | None -> ()

let handle_request ?conn t (rq : P.request) =
  Telemetry.Counter.incr t.requests;
  let verb = op_name rq.P.rq_op in
  let inflight = List.assoc_opt verb t.inflight in
  Option.iter Atomic.incr inflight;
  let t0 = Telemetry.Clock.now_ns () in
  let run () =
    if t.role = Follower && not (P.read_only rq.P.rq_op) then
      fail P.Not_leader
        "this node is a read-only replica; send %S to the leader" verb;
    match rq.P.rq_op with
    | P.Open { o_session; o_hierarchy } ->
      handle_open t ~session:o_session o_hierarchy
    | P.Lookup { lk_query; lk_semantics } ->
      handle_lookup t (session t rq.P.rq_session) lk_semantics lk_query
    | P.Batch_lookup { bl_queries; bl_semantics } ->
      handle_batch t (session t rq.P.rq_session) bl_semantics bl_queries
    | P.Mutate m -> handle_mutate t (session t rq.P.rq_session) m
    | P.Lint { l_rules; l_semantics } ->
      handle_lint t (session t rq.P.rq_session) l_semantics l_rules
    | P.Snapshot -> handle_snapshot t (session t rq.P.rq_session)
    | P.Restore -> handle_restore t ~session:rq.P.rq_session
    | P.Stats -> handle_stats t rq.P.rq_session
    | P.Metrics -> handle_metrics t
    | P.Symbols -> handle_symbols (session t rq.P.rq_session)
    | P.Close -> handle_close t (session t rq.P.rq_session)
  in
  let run () =
    if Telemetry.Sink.enabled t.sink then begin
      Telemetry.Sink.emit t.sink "request"
        (("op", Telemetry.Event.Str verb)
         ::
         (match rq.P.rq_session with
         | Some s -> [ ("session", Telemetry.Event.Str s) ]
         | None -> []));
      Telemetry.Span.run t.spans ("rpc:" ^ verb) run
    end
    else run ()
  in
  let outcome, internal, resp =
    match run () with
    | fields -> ("ok", false, P.ok_response ~id:rq.P.rq_id fields)
    | exception Reply_error (code, msg) ->
      Telemetry.Counter.incr t.errors;
      (P.code_string code, false, P.error_response ~id:rq.P.rq_id code msg)
    | exception exn ->
      (* a bug, not a bad request: answer [internal] instead of dying,
         and dump the flight recorder below so the requests leading
         here are preserved *)
      Telemetry.Counter.incr t.errors;
      ( P.code_string P.Internal,
        true,
        P.error_response ~id:rq.P.rq_id P.Internal (Printexc.to_string exn) )
  in
  Option.iter Atomic.decr inflight;
  observe ?conn t ~verb ~session:rq.P.rq_session ~id:rq.P.rq_id ~t0 ~outcome
    resp;
  (* after observe, so the failing request itself is in the ring *)
  if internal then dump_flight t stderr;
  resp

let observe_rejected ?conn t ~verb ~id ~code resp =
  observe ?conn t ~verb ~session:None ~id
    ~t0:(Telemetry.Clock.now_ns ())
    ~outcome:(P.code_string code) resp

(* A request refused without execution — the networked server's
   admission control and framing guards (overload, oversized line)
   answer through here so rejections still hit the request counters,
   the flight recorder and the log. *)
let reject ?conn t ~verb ~id code msg =
  Telemetry.Counter.incr t.requests;
  Telemetry.Counter.incr t.errors;
  if code = P.Overloaded then Telemetry.Counter.incr t.net.net_overloaded;
  let resp = P.error_response ~id code msg in
  observe_rejected ?conn t ~verb ~id ~code resp;
  resp

let handle_json ?conn t j =
  match P.request_of_json j with
  | Ok rq -> handle_request ?conn t rq
  | Error (id, code, msg) ->
    Telemetry.Counter.incr t.requests;
    Telemetry.Counter.incr t.errors;
    let resp = P.error_response ~id code msg in
    observe_rejected ?conn t ~verb:"invalid" ~id ~code resp;
    resp

let handle_line ?conn t line =
  match P.parse_request line with
  | Ok rq -> handle_request ?conn t rq
  | Error (id, code, msg) ->
    Telemetry.Counter.incr t.requests;
    Telemetry.Counter.incr t.errors;
    let resp = P.error_response ~id code msg in
    observe_rejected ?conn t ~verb:"invalid" ~id ~code resp;
    resp

(* [reject]'s binary twin: refuse a frame without executing it (the
   networked server's admission control and oversized-frame guard),
   with identical accounting, answering a binary error frame. *)
let reject_frame ?conn t ~verb ~id code msg =
  Telemetry.Counter.incr t.requests;
  Telemetry.Counter.incr t.errors;
  if code = P.Overloaded then Telemetry.Counter.incr t.net.net_overloaded;
  let out = Frame.encode_response ~id (Frame.Err (code, msg)) in
  observe ?conn ~frame_bytes:(String.length out) t ~verb ~session:None
    ~id:(J.Int id)
    ~t0:(Telemetry.Clock.now_ns ())
    ~outcome:(P.code_string code) (J.Obj []);
  out

(* ---- the binary (cxxlookup-rpc/1b) hot path ------------------------

   Frames answer through the same accounting as the JSON verbs — the
   shared per-verb histograms/counters, flight recorder and request log
   — with classes and members addressed by interned ids (lib/service/
   frame.ml has the wire format; session.mli the id assignment).  A
   lookup whose member column is cached in the session symtab runs
   int-only end to end: no JSON, no hashing, no allocation. *)

let frame_lookup t s ~cls ~member via =
  Telemetry.Counter.incr t.lookups;
  match Session.lookup_code s ~cls ~member with
  | Ok (code, served) ->
    via := Some (Session.served_string served);
    Frame.Ok_lookup code
  | Error `Bad_class -> fail P.Unknown_class "unknown class id %d" cls
  | Error `Bad_member -> fail P.Bad_request "unknown member id %d" member

(* Unlike the JSON batch (which embeds per-query error objects), a bad
   id fails the whole binary batch: ids come from the server's own
   symbols/delta stream, so an out-of-range id is a client bug, not
   data-dependent drift worth per-query reporting. *)
let frame_batch t s pairs =
  Telemetry.Counter.incr t.batch_requests;
  Telemetry.Counter.add t.batch_queries (Array.length pairs);
  let resolved = ref 0 and ambiguous = ref 0 and not_found = ref 0 in
  let codes =
    Array.map
      (fun (cls, member) ->
        match Session.lookup_code s ~cls ~member with
        | Ok (code, _) ->
          if code >= 0 then incr resolved
          else if code = -2 then incr ambiguous
          else incr not_found;
          code
        | Error `Bad_class -> fail P.Unknown_class "unknown class id %d" cls
        | Error `Bad_member ->
          fail P.Bad_request "unknown member id %d" member)
      pairs
  in
  Frame.Ok_batch
    { ob_codes = codes; ob_resolved = !resolved; ob_ambiguous = !ambiguous;
      ob_not_found = !not_found }

let frame_add_member t s ~cls:cid member =
  Telemetry.Counter.incr t.mutations;
  let g = Session.graph s in
  if cid < 0 || cid >= G.num_classes g then
    fail P.Unknown_class "unknown class id %d" cid;
  let cls = G.name g cid in
  let before = Session.num_member_symbols s in
  try
    let rows, invalidated = Session.add_member s ~cls member in
    log_mutation t s (P.Add_member { mm_class = cls; mm_member = member });
    let oam_member =
      match Session.member_symbol s member.G.m_name with
      | Some id -> id
      | None -> fail P.Internal "member %S not interned" member.G.m_name
    in
    Frame.Ok_add_member
      { oam_member; oam_rows = rows; oam_invalidated = invalidated;
        oam_epoch = Session.epoch s;
        oam_new_symbols = Session.member_symbols_from s before }
  with G.Error e ->
    let code =
      match e with G.Unknown_class _ -> P.Unknown_class | _ -> P.Bad_hierarchy
    in
    fail code "%s" (G.error_to_string e)

let frame_add_class t s ~name ~bases ~members =
  Telemetry.Counter.incr t.mutations;
  let before = Session.num_member_symbols s in
  try
    let cid = Session.add_class s ~cls:name ~bases ~members in
    log_mutation t s
      (P.Add_class { mc_name = name; mc_bases = bases; mc_members = members });
    Frame.Ok_add_class
      { oac_class = cid;
        oac_classes = G.num_classes (Session.graph s);
        oac_epoch = Session.epoch s;
        oac_new_symbols = Session.member_symbols_from s before }
  with G.Error e ->
    let code =
      match e with
      | G.Unknown_class _ | G.Unknown_base _ -> P.Unknown_class
      | _ -> P.Bad_hierarchy
    in
    fail code "%s" (G.error_to_string e)

let frame_symbols s =
  let epoch, classes, members = Session.symbols s in
  Frame.Ok_symbols
    { os_epoch = epoch; os_classes = classes; os_members = members }

(* [handle_frame t frame] answers one complete binary request frame
   (header + payload, exactly as read off the wire) with a complete
   response frame.  Decode failures answer [bad_request] — echoing the
   request id when the [i64 id | string session] prefix survived —
   never an exception; the length prefix already bounded the read, so a
   bad payload cannot desynchronize the connection. *)
let handle_frame ?conn t frame =
  let t_decode = Telemetry.Clock.now_ns () in
  let decoded =
    match Frame.parse_header frame with
    | Error msg -> Error (0, P.Parse_error, msg)
    | Ok (op, len) ->
      if String.length frame <> Frame.header_len + len then
        Error (0, P.Parse_error, "frame length disagrees with header")
      else
        let body = String.sub frame Frame.header_len len in
        (match Frame.decode_request ~op body with
        | Ok rq -> Ok rq
        | Error msg ->
          let id =
            match Frame.session_of_request body with
            | Ok (id, _) -> id
            | Error _ -> 0
          in
          Error (id, P.Bad_request, msg))
  in
  Telemetry.Histogram.record t.frame_decode_ns
    (Telemetry.Clock.elapsed_ns ~since:t_decode);
  match decoded with
  | Error (id, code, msg) ->
    Telemetry.Counter.incr t.requests;
    Telemetry.Counter.incr t.errors;
    let out = Frame.encode_response ~id (Frame.Err (code, msg)) in
    observe ?conn ~frame_bytes:(String.length out) t ~verb:"invalid"
      ~session:None ~id:(J.Int id)
      ~t0:(Telemetry.Clock.now_ns ())
      ~outcome:(P.code_string code) (J.Obj []);
    out
  | Ok rq ->
    Telemetry.Counter.incr t.requests;
    let verb = Frame.op_string rq.Frame.fr_op in
    let inflight = List.assoc_opt verb t.inflight in
    Option.iter Atomic.incr inflight;
    let t0 = Telemetry.Clock.now_ns () in
    let via = ref None in
    let run () =
      if t.role = Follower && not (Frame.read_only rq.Frame.fr_op) then
        fail P.Not_leader
          "this node is a read-only replica; send %S to the leader" verb;
      let s = session t (Some rq.Frame.fr_session) in
      match rq.Frame.fr_op with
      | Frame.Lookup { lk_class; lk_member } ->
        frame_lookup t s ~cls:lk_class ~member:lk_member via
      | Frame.Batch_lookup pairs -> frame_batch t s pairs
      | Frame.Add_member { am_class; am_member } ->
        frame_add_member t s ~cls:am_class am_member
      | Frame.Add_class { ac_name; ac_bases; ac_members } ->
        frame_add_class t s ~name:ac_name ~bases:ac_bases
          ~members:ac_members
      | Frame.Symbols -> frame_symbols s
    in
    let outcome, internal, resp =
      match run () with
      | r -> ("ok", false, r)
      | exception Reply_error (code, msg) ->
        Telemetry.Counter.incr t.errors;
        (P.code_string code, false, Frame.Err (code, msg))
      | exception exn ->
        Telemetry.Counter.incr t.errors;
        ( P.code_string P.Internal,
          true,
          Frame.Err (P.Internal, Printexc.to_string exn) )
    in
    Option.iter Atomic.decr inflight;
    let out = Frame.encode_response ~id:rq.Frame.fr_id resp in
    observe ?conn ~frame_bytes:(String.length out) ?via:!via t ~verb
      ~session:(Some rq.Frame.fr_session) ~id:(J.Int rq.Frame.fr_id) ~t0
      ~outcome (J.Obj []);
    if internal then dump_flight t stderr;
    out

(* ---- replication entry points --------------------------------------

   The follower's applier mutates sessions through here, not through
   [handle_request]: the [not_leader] gate is for clients, while these
   mirror the leader's stream.  Both re-persist into the follower's own
   store (when configured) so a restarted replica recovers locally and
   resumes from its last applied epoch instead of re-bootstrapping. *)

let open_sessions t =
  Hashtbl.fold
    (fun name s acc -> (name, Session.epoch s) :: acc)
    t.sessions []
  |> List.sort compare

(* Install a full snapshot, superseding whatever the name held: the
   stream's resynchronization point (bootstrap, post-compaction gap, or
   a fresh lineage under a reused name). *)
let install_snapshot t (snap : Store.Snapshot.t) =
  let name = snap.Store.Snapshot.s_session in
  match
    Session.restore ~config:t.config ~name
      ~epoch:snap.Store.Snapshot.s_epoch
      ~columns:snap.Store.Snapshot.s_columns snap.Store.Snapshot.s_graph
  with
  | exception exn -> Error (Printexc.to_string exn)
  | s ->
    (match t.store with
    | None -> ()
    | Some store ->
      Store.reset_session store name;
      ignore (write_snapshot store s));
    if not (Hashtbl.mem t.sessions name) then
      Telemetry.Counter.incr t.sessions_opened;
    if not (List.mem name t.session_order) then
      t.session_order <- t.session_order @ [ name ];
    Hashtbl.replace t.sessions name s;
    Session.register s t.registry;
    Ok ()

(* Apply one replicated WAL record.  The epoch must extend the session
   exactly — same strictly-consecutive contract recovery enforces — or
   the caller must resynchronize from a snapshot. *)
let apply_replicated t ~session:name ~epoch (m : Store.Mutation.t) =
  match Hashtbl.find_opt t.sessions name with
  | None -> Error (Printf.sprintf "no session %S to apply epoch %d to" name epoch)
  | Some s ->
    if epoch <> Session.epoch s + 1 then
      Error
        (Printf.sprintf "session %S: epoch gap (at %d, record %d)" name
           (Session.epoch s) epoch)
    else begin
      match
        (match m with
        | Store.Mutation.Add_class { ac_name; ac_bases; ac_members } ->
          ignore
            (Session.add_class s ~cls:ac_name ~bases:ac_bases
               ~members:ac_members)
        | Store.Mutation.Add_member { am_class; am_member } ->
          ignore (Session.add_member s ~cls:am_class am_member))
      with
      | exception G.Error e -> Error (G.error_to_string e)
      | () ->
        Telemetry.Counter.incr t.mutations;
        (match t.store with
        | None -> ()
        | Some store ->
          Store.log_mutation store ~session:name ~epoch m;
          if Store.needs_compaction store ~session:name then begin
            Store.note_compaction store;
            ignore (write_snapshot store s)
          end);
        Ok ()
    end

(* ---- startup recovery ---------------------------------------------- *)

type recovered =
  | Recovered of {
      r_session : string;
      r_epoch : int;
      r_replayed : int;
      r_torn : bool;
    }
  | Recovery_failed of { r_session : string; r_error : string }

let recover_sessions t =
  match t.store with
  | None -> []
  | Some store ->
    List.filter_map
      (fun name ->
        if Hashtbl.mem t.sessions name then None
        else
          match Store.recover store name with
          | Ok None -> None
          | Error msg ->
            Some (Recovery_failed { r_session = name; r_error = msg })
          | Ok (Some rv) ->
            (match session_of_recovery t name rv with
            | s ->
              register_session t s;
              Some
                (Recovered
                   { r_session = name;
                     r_epoch = Session.epoch s;
                     r_replayed = List.length rv.Store.rv_replayed;
                     r_torn = rv.Store.rv_torn })
            | exception G.Error e ->
              Some
                (Recovery_failed
                   { r_session = name; r_error = G.error_to_string e })))
      (Store.sessions store)

let serve ?(after_response = fun () -> ()) t ic oc =
  let rec loop () =
    match In_channel.input_line ic with
    | None -> ()
    | Some line ->
      if String.trim line = "" then loop ()
      else begin
        output_string oc (J.to_string (handle_line t line));
        output_char oc '\n';
        flush oc;
        after_response ();
        loop ()
      end
  in
  loop ()
