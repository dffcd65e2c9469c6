(* The traced run: an in-process replay of the same seeded streams with a
   span around each call into a layer's public function.

   Spans record a name, start, end, parent and the request id shared by
   every span of one request; they stay in memory and are written out
   (TSV) when the run ends.  A layer's self time is its span's duration
   minus the time its child spans cover.  All spans live in this file,
   around calls the benchmark makes — none inside the program.

   The replay runs against twins built from the same [open] request and
   warm-up as the real server: a [Service.Server.t] over its own store
   (fsync always), a bare [Session.t], and a bench [Store.t] for the WAL
   and snapshot calls. *)

module S = Streams
module J = Chg.Json
module G = Chg.Graph
module Se = Service.Session
module F = Service.Frame
module P = Service.Protocol

(* ---- spans ----------------------------------------------------------------- *)

type spans = {
  mutable n : int;
  mutable name : int array;
  mutable start : int array;
  mutable stop : int array;
  mutable parent : int array;
  mutable rid : int array;
}

let sp = { n = 0; name = [||]; start = [||]; stop = [||]; parent = [||]; rid = [||] }
let names : (string, int) Hashtbl.t = Hashtbl.create 32
let name_list = ref []
let enabled = ref false
let current = ref (-1)

let name_id s =
  match Hashtbl.find_opt names s with
  | Some i -> i
  | None ->
    let i = Hashtbl.length names in
    Hashtbl.add names s i;
    name_list := s :: !name_list;
    i

let grow () =
  let cap = max 4096 (2 * Array.length sp.name) in
  let g a = let b = Array.make cap 0 in Array.blit a 0 b 0 sp.n; b in
  sp.name <- g sp.name; sp.start <- g sp.start; sp.stop <- g sp.stop;
  sp.parent <- g sp.parent; sp.rid <- g sp.rid

let span name ~rid f =
  if not !enabled then f ()
  else begin
    if sp.n = Array.length sp.name then grow ();
    let id = sp.n in
    sp.n <- id + 1;
    let parent = !current in
    current := id;
    sp.name.(id) <- name_id name;
    sp.parent.(id) <- parent;
    sp.rid.(id) <- rid;
    sp.start.(id) <- Bclock.now_ns ();
    let r = Fun.protect ~finally:(fun () -> current := parent) f in
    sp.stop.(id) <- Bclock.now_ns ();
    r
  end

(* Durations (ns) of every span named [name], optionally only those of
   requests whose id lies in one of the inclusive ranges [rids]. *)
let durations ?rids name =
  let s = Bclock.samples () in
  let keep r =
    match rids with
    | None -> true
    | Some rs -> List.exists (fun (lo, hi) -> r >= lo && r <= hi) rs
  in
  (match Hashtbl.find_opt names name with
  | None -> ()
  | Some k ->
    for i = 0 to sp.n - 1 do
      if sp.name.(i) = k && keep sp.rid.(i) then
        Bclock.add s (float_of_int (sp.stop.(i) - sp.start.(i)))
    done);
  s

(* Total and self time per span name. *)
let self_times () =
  let child = Array.make sp.n 0 in
  for i = 0 to sp.n - 1 do
    let p = sp.parent.(i) in
    if p >= 0 then child.(p) <- child.(p) + (sp.stop.(i) - sp.start.(i))
  done;
  let k = Hashtbl.length names in
  let total = Array.make k 0 and self = Array.make k 0 and count = Array.make k 0 in
  for i = 0 to sp.n - 1 do
    let d = sp.stop.(i) - sp.start.(i) in
    let nm = sp.name.(i) in
    total.(nm) <- total.(nm) + d;
    self.(nm) <- self.(nm) + d - child.(i);
    count.(nm) <- count.(nm) + 1
  done;
  List.map (fun s -> let i = Hashtbl.find names s in (s, count.(i), total.(i), self.(i)))
    (List.rev !name_list)

let write_spans path =
  let by_id = Array.of_list (List.rev !name_list) in
  Out_channel.with_open_bin path (fun oc ->
      output_string oc "id\tname\tstart_ns\tend_ns\tparent\trequest\n";
      for i = 0 to sp.n - 1 do
        Printf.fprintf oc "%d\t%s\t%d\t%d\t%d\t%d\n" i by_id.(sp.name.(i)) sp.start.(i)
          sp.stop.(i) sp.parent.(i) sp.rid.(i)
      done)

(* ---- the idle round trip ------------------------------------------------------ *)

(* Requests of the workload's closed JSON phase, so RTT and the
   server's handling time describe the same request kind. *)
let closed_json_requests st =
  List.find_map
    (fun ph -> match ph.S.kind with
       | S.Closed { codec = S.Json; requests } -> Some requests
       | _ -> None)
    st.S.phases
  |> Option.get

let closed_frame_requests st =
  List.find_map
    (fun ph -> match ph.S.kind with
       | S.Closed { codec = S.Frame; requests } -> Some requests
       | _ -> None)
    st.S.phases
  |> Option.get

let rtt_requests = 1000

(* [Net.Client.request] round trips on the otherwise idle server. *)
let idle_rtt st (srv : Proc.server) =
  let reqs = closed_json_requests st in
  let c = Net.Client.connect (Net.Server.Tcp ("127.0.0.1", srv.Proc.port)) in
  let s = Bclock.samples () in
  let n = min rtt_requests (Array.length reqs) in
  for i = 0 to n - 1 do
    let line = S.request_line st ~id:i reqs.(i) in
    let t0 = Bclock.now_ns () in
    let resp = Net.Client.request c line in
    Bclock.add s (float_of_int (Bclock.now_ns () - t0) /. 1e3);
    match resp with
    | Some r when String.length r > 0 -> ()
    | _ -> failwith "idle round trip unanswered"
  done;
  Net.Client.close c;
  (s, if Array.length reqs.(0) = 1 then "lookup" else "batch_lookup")

(* ---- the replay ------------------------------------------------------------ *)

type twins = {
  server : Service.Server.t;
  session : Se.t;
  bench_store : Store.t;
  twin_dir : string;
}

let always = { Store.default_config with Store.fsync = Store.Wal.Always }

let make_twins tmp st =
  let twin_dir = Proc.fresh_dir tmp "twin-store" in
  let server =
    Service.Server.create ~store:(Store.open_dir ~config:always twin_dir) ()
  in
  let resp = Service.Server.handle_line server (S.open_line st) in
  if J.member "ok" resp <> Ok (J.Bool true) then failwith "twin open failed";
  let session = Se.create ~name:S.session st.S.graph in
  let probe = G.num_classes st.S.graph - 1 in
  for i = 0 to S.initial_names st - 1 do
    let m = st.S.names.(i) in
    for k = 1 to 3 do
      ignore (Service.Server.handle_line server (S.lookup_line st ~id:k { S.cls = probe; mem = m }));
      ignore (Se.lookup session (G.name st.S.graph probe) m)
    done;
    ignore (Se.lookup_code session ~cls:probe ~member:i)
  done;
  { server; session; bench_store = Store.open_dir ~config:always (Proc.fresh_dir tmp "bench-store");
    twin_dir }

let rid = ref 0

let next_rid () = incr rid; !rid

(* One JSON request through the layers: decode, execute, encode. *)
let json_request ?(twice = true) tw line =
  let r = next_rid () in
  span "request.json" ~rid:r (fun () ->
      let rq =
        span "protocol.decode" ~rid:r (fun () ->
            match J.of_string line with
            | Ok j -> P.request_of_json j
            | Error _ -> failwith "replay: bad request line")
      in
      match rq with
      | Error _ -> failwith "replay: request rejected"
      | Ok rq ->
        let resp = span "server.handle_request" ~rid:r (fun () -> Service.Server.handle_request tw.server rq) in
        let out = span "protocol.encode" ~rid:r (fun () -> J.to_string resp) in
        (* the same request again through the one-call entry point
           (reads only: a mutation must not be applied twice) *)
        if twice then
          ignore (span "server.handle_line" ~rid:r (fun () -> Service.Server.handle_line tw.server line));
        String.length out + 1)

let frame_request tw frame ~op =
  let r = next_rid () in
  span "request.1b" ~rid:r (fun () ->
      ignore
        (span "frame.decode" ~rid:r (fun () ->
             F.decode_request ~op (String.sub frame F.header_len (String.length frame - F.header_len))));
      let out = span "server.handle_frame" ~rid:r (fun () -> Service.Server.handle_frame tw.server frame) in
      (match F.decode_response ~op out with
      | Ok (id, resp) -> ignore (span "frame.encode" ~rid:r (fun () -> F.encode_response ~id resp))
      | Error _ -> failwith "replay: bad response frame");
      String.length out)

let session_lookup tw st (q : S.query) =
  span "session.lookup" ~rid:!rid (fun () ->
      ignore (Se.lookup tw.session (S.class_name st q.S.cls) q.S.mem))

let session_lookup_code tw st (q : S.query) =
  let m = S.member_id st q.S.mem in
  span "session.lookup_code" ~rid:!rid (fun () ->
      ignore (Se.lookup_code tw.session ~cls:q.S.cls ~member:m))

let rows = ref 0 and add_members = ref 0

(* A mutation: the wire path on the twin server (which logs to its own
   WAL), then the session call and the WAL append as separate spans. *)
let mutation tw ~idx m =
  ignore (json_request ~twice:false tw (S.mutation_line ~id:idx m));
  let r = !rid in
  (match m with
  | Store.Mutation.Add_member { am_class; am_member } ->
    let n, _ = span "session.add_member" ~rid:r (fun () -> Se.add_member tw.session ~cls:am_class am_member) in
    rows := !rows + n;
    incr add_members;
    (* the first lookup of the member after its column was dropped *)
    let c = match G.find_opt (Se.graph tw.session) am_class with Some c -> c | None -> 0 in
    span "session.requery" ~rid:r (fun () ->
        ignore (Se.lookup tw.session (G.name (Se.graph tw.session) c) am_member.G.m_name))
  | Store.Mutation.Add_class { ac_name; ac_bases; ac_members } ->
    ignore
      (span "session.add_class" ~rid:r (fun () ->
           Se.add_class tw.session ~cls:ac_name ~bases:ac_bases ~members:ac_members)));
  span "wal.append" ~rid:r (fun () ->
      Store.log_mutation tw.bench_store ~session:S.session ~epoch:(idx + 1) m)
  |> ignore

let replay_cap = 1000

(* What the replay of the closed phases of one codec covered: the
   request-id ranges of their spans, the queries, and the bytes on the
   wire both ways. *)
type closed_replay = { rids : (int * int) list; queries : int; bytes : int }

(* Replays every phase's prefix in stream order; returns the coverage of
   the closed JSON and the closed 1b phase. *)
let replay tw st =
  let json_bytes = ref (0, 0) and frame_bytes = ref (0, 0) in
  let json_rids = ref [] and frame_rids = ref [] in
  List.iter
    (fun ph ->
      match ph.S.kind with
      | S.Open_loop o ->
        let nl = min replay_cap (Array.length o.lookups) in
        let nm = Array.length o.mutations in
        let due_l i = float_of_int i /. o.lookup_rate
        and due_m j = float_of_int j /. o.mutate_rate in
        let rec go i j =
          if j < nm && (i >= nl || due_m j <= due_l i) then begin
            mutation tw ~idx:(o.first_mutation + j) o.mutations.(j);
            go i (j + 1)
          end
          else if i < nl then begin
            let q = o.lookups.(i) in
            ignore (json_request tw (S.lookup_line st ~id:i q));
            session_lookup tw st q;
            go (i + 1) j
          end
        in
        go 0 0
      | S.Closed { codec = S.Json; requests } ->
        let n = min replay_cap (Array.length requests) in
        json_rids := (!rid + 1, !rid + n) :: !json_rids;
        for i = 0 to n - 1 do
          let line = S.request_line st ~id:i requests.(i) in
          let out = json_request tw line in
          Array.iter (session_lookup tw st) requests.(i);
          let q, b = !json_bytes in
          json_bytes := (q + Array.length requests.(i), b + String.length line + 1 + out)
        done
      | S.Closed { codec = S.Frame; requests } ->
        let n = min replay_cap (Array.length requests) in
        frame_rids := (!rid + 1, !rid + n) :: !frame_rids;
        for i = 0 to n - 1 do
          let qs = requests.(i) in
          let frame = S.request_frame st ~id:i qs in
          let op = if Array.length qs = 1 then F.op_lookup else F.op_batch_lookup in
          let out = frame_request tw frame ~op in
          Array.iter (session_lookup_code tw st) qs;
          let q, b = !frame_bytes in
          frame_bytes := (q + Array.length qs, b + String.length frame + out)
        done)
    st.S.phases;
  let cover rids (queries, bytes) = { rids; queries; bytes } in
  (cover !json_rids !json_bytes, cover !frame_rids !frame_bytes)

(* The closed phases once more, cycling for at least [rate_s] seconds
   each, as in-process lookups per second: with [traced] false and true,
   the tracing overhead on the replay's own end-to-end figure. *)
let rate_s = 0.3

let replay_rate tw st ~traced =
  enabled := traced;
  let rate reqs one =
    let n = Array.length reqs in
    let t0 = Bclock.now_ns () and q = ref 0 and i = ref 0 in
    while Bclock.seconds_since t0 < rate_s do
      one !i reqs.(!i mod n);
      q := !q + Array.length reqs.(!i mod n);
      incr i
    done;
    float_of_int !q /. Bclock.seconds_since t0
  in
  let json i qs = ignore (json_request ~twice:false tw (S.request_line st ~id:i qs)) in
  let frame i qs =
    let op = if Array.length qs = 1 then F.op_lookup else F.op_batch_lookup in
    ignore (frame_request tw (S.request_frame st ~id:i qs) ~op)
  in
  let r = (rate (closed_json_requests st) json, rate (closed_frame_requests st) frame) in
  enabled := false;
  r

(* Minor words allocated per request on the server's entry points. *)
let minor_words tw st =
  let per f n =
    let w0 = Gc.minor_words () in
    for i = 0 to n - 1 do f i done;
    (Gc.minor_words () -. w0) /. float_of_int n
  in
  let jr = closed_json_requests st and fr = closed_frame_requests st in
  let nj = min replay_cap (Array.length jr) and nf = min replay_cap (Array.length fr) in
  let lines = Array.init nj (fun i -> S.request_line st ~id:i jr.(i)) in
  let frames = Array.init nf (fun i -> S.request_frame st ~id:i fr.(i)) in
  ( per (fun i -> ignore (Service.Server.handle_line tw.server lines.(i))) nj,
    per (fun i -> ignore (Service.Server.handle_frame tw.server frames.(i))) nf )

let time_ms reps f =
  let s = Bclock.samples () in
  for _ = 1 to reps do
    let t0 = Bclock.now_ns () in
    ignore (f ());
    Bclock.add s (float_of_int (Bclock.now_ns () - t0) /. 1e6)
  done;
  Bclock.percentile s 0.5

let counter_of name kvs = try float_of_int (List.assoc name kvs) with Not_found -> Float.nan

let rec path j = function
  | [] -> (match j with J.Int n -> float_of_int n | _ -> Float.nan)
  | k :: rest -> (match J.member k j with Ok v -> path v rest | Error _ -> Float.nan)

(* ---- the per-layer report ------------------------------------------------------ *)

let run tmp ~spans_path st (e2e : (string * float) list) ~service_stats ~session_stats ~gen_late
    ~gen_cpu_s ~server_cpu_s ~requests ~rtt =
  let tw = make_twins tmp st in
  enabled := true;
  let cj, cf = replay tw st in
  enabled := false;
  let mw_json, mw_1b = minor_words tw st in
  let jq = cj.queries and fq = cf.queries in
  let d name = durations name in
  let dj name = durations ~rids:cj.rids name and df name = durations ~rids:cf.rids name in
  let med s scale = Bclock.percentile s 0.5 /. scale in
  let handle_line = dj "server.handle_line" in
  let rtt_s, rtt_kind = match rtt with Some r -> r | None -> (Bclock.samples (), "none") in
  (* engine, closure and packed build on the initial hierarchy *)
  let closure_ms = time_ms 3 (fun () -> Chg.Closure.compute st.S.graph) in
  let cl = Chg.Closure.compute st.S.graph in
  let metrics = Lookup_core.Metrics.create () in
  ignore (Lookup_core.Packed.build ~jobs:1 ~metrics cl);
  let engine_counts = Lookup_core.Metrics.counters metrics in
  let packed_ms = time_ms 3 (fun () -> Lookup_core.Packed.build ~jobs:1 cl) in
  (* store: WAL figures from the bench store's counters *)
  let sc = Store.counters tw.bench_store in
  let appends = counter_of "store_wal_appends" sc in
  let wal_bytes = float_of_int (Store.wal_size tw.bench_store ~session:S.session) in
  let snap =
    { Store.Snapshot.s_session = S.session;
      s_epoch = Se.epoch tw.session;
      s_protocol = P.version;
      s_graph = Se.graph tw.session;
      s_columns = Se.compiled_columns tw.session }
  in
  let snapshot_ms = time_ms 3 (fun () -> Store.write_snapshot tw.bench_store snap) in
  let recover_ms =
    time_ms 3 (fun () -> Store.recover (Store.open_dir ~config:always tw.twin_dir) S.session)
  in
  let recover_sessions_ms =
    time_ms 1 (fun () ->
        Service.Server.recover_sessions
          (Service.Server.create ~store:(Store.open_dir ~config:always tw.twin_dir) ()))
  in
  let hits = path session_stats [ "stats"; "table"; "table_hits" ]
  and misses = path session_stats [ "stats"; "table"; "table_misses" ] in
  let lat = Bclock.samples () in
  List.iter (fun s -> Array.iter (Bclock.add lat) (Bclock.sorted s)) gen_late;
  let n s = Bclock.count s in
  let am = d "session.add_member" in
  let layers =
    [ ("net.rtt_us", "us", n rtt_s, med rtt_s 1.);
      ("net.overhead_us", "us", n rtt_s, med rtt_s 1. -. med handle_line 1e3);
      ("net.overloaded", "count", 1, path service_stats [ "service"; "net"; "overloaded" ]);
      ("gen.late_p50_us", "us", n lat, Bclock.percentile lat 0.5);
      ("gen.late_p99_us", "us", n lat, Bclock.percentile lat 0.99);
      ("proc.gen_cpu_s", "s", 1, gen_cpu_s);
      ("protocol.decode_us", "us", n (dj "protocol.decode"), med (dj "protocol.decode") 1e3);
      ("protocol.encode_us", "us", n (dj "protocol.encode"), med (dj "protocol.encode") 1e3);
      ("protocol.bytes_per_lookup", "bytes", jq, float_of_int cj.bytes /. float_of_int jq);
      ("frame.decode_us", "us", n (df "frame.decode"), med (df "frame.decode") 1e3);
      ("frame.encode_us", "us", n (df "frame.encode"), med (df "frame.encode") 1e3);
      ("frame.bytes_per_lookup", "bytes", fq, float_of_int cf.bytes /. float_of_int fq);
      ("server.handle_line_us", "us", n handle_line, med handle_line 1e3);
      ("server.handle_frame_us", "us", n (df "server.handle_frame"), med (df "server.handle_frame") 1e3);
      ("server.minor_words.json", "words", jq, mw_json);
      ("server.minor_words.1b", "words", fq, mw_1b);
      ("proc.server_cpu_us_per_req", "us", requests, server_cpu_s *. 1e6 /. float_of_int requests);
      ("session.lookup_ns", "ns", n (d "session.lookup"), med (d "session.lookup") 1.);
      ("session.lookup_code_ns", "ns", n (d "session.lookup_code"), med (d "session.lookup_code") 1.);
      ("session.requery_us", "us", n (d "session.requery"), med (d "session.requery") 1e3);
      ("table_cache.hit_ratio", "ratio", 1, hits /. (hits +. misses));
      ("table_cache.promotions", "count", 1, path session_stats [ "stats"; "table"; "table_promotions" ]);
      ("table_cache.invalidations", "count", 1, path session_stats [ "stats"; "table"; "table_invalidations" ]);
      ("session.add_member_ms", "ms", n am, med am 1e6);
      ("session.add_class_ms", "ms", n (d "session.add_class"), med (d "session.add_class") 1e6);
      ("session.rows_recomputed", "rows", !add_members, float_of_int !rows /. float_of_int (max 1 !add_members));
      ("closure.compute_ms", "ms", 3, closure_ms);
      ("packed.build_ms", "ms", 3, packed_ms);
      ("engine.edge_traversals", "count", 1, counter_of "edge_traversals" engine_counts);
      ("engine.dominance_probes", "count", 1, counter_of "dominance_probes" engine_counts);
      ("wal.append_us", "us", n (d "wal.append"), med (d "wal.append") 1e3);
      ("wal.bytes_per_mutation", "bytes", int_of_float appends, wal_bytes /. appends);
      ("store.fsyncs_per_mutation", "ratio", int_of_float appends, counter_of "store_wal_fsyncs" sc /. appends);
      ("snapshot.write_ms", "ms", 3, snapshot_ms);
      ("store.recover_ms", "ms", 3, recover_ms);
      ("server.recover_sessions_ms", "ms", 1, recover_sessions_ms) ]
  in
  print_endline "span self time (traced replay):";
  List.iter
    (fun (s, c, total, self) ->
      Printf.printf "  %-24s n=%-7d total %10.3f ms  self %10.3f ms\n" s c
        (float_of_int total /. 1e6) (float_of_int self /. 1e6))
    (self_times ());
  write_spans spans_path;
  Printf.printf "spans written to %s\n" spans_path;
  (* the replay's own end-to-end rates on the post-stream state; these
     spans are not kept *)
  sp.n <- 0;
  (* untraced and traced passes alternate, three of each, and report
     medians: the cache state drifts from pass to pass *)
  let passes = List.init 3 (fun _ ->
      let u = replay_rate tw st ~traced:false in
      (u, replay_rate tw st ~traced:true))
  in
  let med f = Bclock.median_of_list (List.map f passes) in
  let untraced = (med (fun ((j, _), _) -> j), med (fun ((_, b), _) -> b))
  and traced = (med (fun (_, (j, _)) -> j), med (fun (_, (_, b)) -> b)) in
  let e2e_v k = try List.assoc k e2e with Not_found -> Float.nan in
  Printf.printf "end-to-end beside the replay (lookups/s):\n";
  Printf.printf "  %-22s server %12.1f | replay untraced %12.1f traced %12.1f (%.1f%% overhead)\n"
    "lookups_per_s.json" (e2e_v "lookups_per_s.json") (fst untraced) (fst traced)
    (100. *. (fst untraced -. fst traced) /. fst untraced);
  Printf.printf "  %-22s server %12.1f | replay untraced %12.1f traced %12.1f (%.1f%% overhead)\n"
    "lookups_per_s.1b" (e2e_v "lookups_per_s.1b") (snd untraced) (snd traced)
    (100. *. (snd untraced -. snd traced) /. snd untraced);
  Printf.printf "  idle RTT measured with %s requests\n" rtt_kind;
  layers
