(* The serving benchmark's driver.

     perfbench.exe --workload point|batch|edit --seed N --seconds S
                   --trace 0|1 --server-exe PATH [--out DIR]

   Starts a real [cxxlookup serve --listen] process, drives it over
   loopback from this single-threaded process, checks every answer
   against the oracle after the run, and prints every metric by name
   with its unit.  The last line of standard output is one JSON object:
   the end-to-end metrics with [--trace 0], the per-layer metrics with
   [--trace 1] (which adds the in-process traced replay of the same
   streams, see [Traced]). *)

module S = Streams
module L = Load
module J = Chg.Json
module G = Chg.Graph

type env = {
  exe : string;
  tmp : string;
  out : string;
  deadline : int;  (** ns; the run gives up past it *)
}

(* ---- failure accounting ------------------------------------------------- *)

let attempted = ref 0
let failed = ref 0
let failure_notes = ref []

let attempt n = attempted := !attempted + n

let fail fmt =
  Printf.ksprintf
    (fun msg ->
      incr failed;
      if List.length !failure_notes < 10 then failure_notes := msg :: !failure_notes)
    fmt

let json_of body = match J.of_string body with Ok j -> Some j | Error _ -> None

let is_ok j = J.member "ok" j = Ok (J.Bool true)

let int_field k j = match J.member k j with Ok (J.Int n) -> Some n | _ -> None

(* A control response that must succeed for the run to mean anything. *)
let expect_ok what body =
  match json_of body with
  | Some j when is_ok j -> j
  | _ -> failwith (Printf.sprintf "%s failed: %s" what (String.sub body 0 (min 300 (String.length body))))

(* ---- set-up --------------------------------------------------------------- *)

let control_line op = S.json_line [ ("id", J.Int (-1)); ("op", J.String op); ("session", J.String S.session) ]

let service_stats_line = S.json_line [ ("id", J.Int (-1)); ("op", J.String "stats") ]

(* One checked lookup: [true] when the answer matches the oracle at
   some epoch in [lo, hi]. *)
let check_lookup st oracle ~lo ~hi (q : S.query) body =
  attempt 1;
  match json_of body with
  | Some j when is_ok j ->
    if
      Oracle.exists_epoch ~lo ~hi (fun e ->
          Oracle.json_matches oracle (Oracle.verdict oracle ~epoch:e q.S.cls q.S.mem) j)
    then true
    else begin
      fail "%s: wrong verdict for %s::%s at epochs %d..%d: %s" (S.name st.S.workload)
        (S.class_name st q.S.cls) q.S.mem lo hi body;
      false
    end
  | _ ->
    fail "lookup %s::%s answered %s" (S.class_name st q.S.cls) q.S.mem body;
    false

type live = { srv : Proc.server; ld : L.t }

(* The session's member ids as the server numbers them now. *)
let member_ids ld =
  let syms = expect_ok "symbols" (L.call ld 0 (control_line "symbols")) in
  let ids = Hashtbl.create 64 in
  (match J.member "members" syms with
  | Ok (J.List ms) -> List.iteri (fun i m -> match m with J.String n -> Hashtbl.replace ids n i | _ -> ()) ms
  | _ -> failwith "symbols: no member table");
  ids

(* Three lookups of each of [names] at the last class — past the
   promotion threshold, so every one of their columns is compiled. *)
let promote_all st ld names =
  let probe = G.num_classes st.S.graph - 1 in
  let reqs =
    List.concat_map
      (fun m -> List.init 3 (fun i -> S.lookup_line st ~id:i { S.cls = probe; mem = m }))
      names
  in
  List.iter (fun b -> ignore (expect_ok "warm-up lookup" b)) (L.call_many ld 0 reqs)

(* Spawn over [store], open the hierarchy, promote every column, fetch
   the interned ids, and get a first verified answer. *)
let setup env st oracle ~store =
  let open_line = S.open_line st in
  let t0 = Bclock.now_ns () in
  let srv = Proc.spawn ~exe:env.exe ~store ~log:(store ^ ".log") in
  let ld = L.create ~deadline:env.deadline [| srv.Proc.port; srv.Proc.port |] in
  ignore (expect_ok "open" (L.call ld 0 open_line));
  let n_init = S.initial_names st in
  promote_all st ld (List.init n_init (fun i -> st.S.names.(i)));
  let ids = member_ids ld in
  if List.exists (fun i -> Hashtbl.find_opt ids st.S.names.(i) <> Some i) (List.init n_init Fun.id)
  then failwith "symbols: member ids differ from the stream's interning order";
  let stats = expect_ok "stats" (L.call ld 0 (control_line "stats")) in
  if Traced.path stats [ "stats"; "table"; "entries" ] <> float_of_int n_init then
    failwith "warm-up did not promote every column";
  let q = st.S.probes.(0) in
  if not (check_lookup st oracle ~lo:0 ~hi:0 q (L.call ld 1 (S.lookup_line st ~id:1 q))) then
    failwith "set-up probe answered wrongly";
  ({ srv; ld }, float_of_int (Bclock.now_ns () - t0) /. 1e9)

(* ---- the measured phases ---------------------------------------------------- *)

type phase_log = {
  ph : S.phase;
  epoch0 : int;  (** mutations acknowledged before the phase *)
  mutable responses : L.response list;
  mutable late : Bclock.samples option;
  mutable throughput : Bclock.samples option;  (** per-window lookups/s *)
}

let tag_lookup = 0
let tag_request = 1

let run_phase st live pi (ph : S.phase) =
  let log = { ph; epoch0 = live.ld.L.acked; responses = []; late = None; throughput = None } in
  let record r = log.responses <- r :: log.responses in
  (match ph.S.kind with
  | S.Open_loop o ->
    let lookups =
      Array.mapi
        (fun i q ->
          { L.e_due = int_of_float (float_of_int i *. 1e9 /. o.lookup_rate);
            e_conn = o.lookup_conns.(i mod Array.length o.lookup_conns);
            e_data = S.lookup_line st ~id:((pi * 10_000_000) + i) q;
            e_tag = tag_lookup; e_idx = i })
        o.lookups
    in
    let muts =
      Array.mapi
        (fun j m ->
          let idx = o.first_mutation + j in
          { L.e_due = int_of_float (float_of_int j *. 1e9 /. o.mutate_rate);
            e_conn = 0; e_data = S.mutation_line ~id:idx m; e_tag = L.tag_mutation;
            e_idx = idx })
        o.mutations
    in
    let events = Array.append muts lookups in
    Array.stable_sort (fun a b -> compare a.L.e_due b.L.e_due) events;
    let _, late = L.open_loop live.ld events ~log:record in
    log.late <- Some late
  | S.Closed { codec; requests } ->
    (* Untimed: fetch the server's member ids (mutations add names, and a
       restarted server renumbers them; 1b frames carry ids), and promote
       every member's column again, so closed-loop throughput is that of
       a warm server on every workload — right after [edit]'s writes
       half the columns are invalid, and how many varied with the seed. *)
    let ids = member_ids live.ld in
    promote_all st live.ld (List.sort compare (Hashtbl.fold (fun m _ acc -> m :: acc) ids []));
    let reqs =
      Array.mapi
        (fun i qs ->
          ( (match codec with
            | S.Json -> S.request_line st ~id:i qs
            | S.Frame ->
              S.request_frame st ~id:i qs ~ids:(fun m ->
                  match Hashtbl.find_opt ids m with
                  | Some id -> id
                  | None -> failwith ("no member id for " ^ m))),
            Array.length qs ))
        requests
    in
    let framing = match codec with S.Json -> L.Line | S.Frame -> L.Frame in
    log.throughput <-
      Some (L.closed_loop live.ld reqs ~tag:tag_request ~framing ~dur_s:ph.S.dur_s ~log:record));
  log

(* ---- verdict check (after the run, untimed) -------------------------------- *)

let check_phase st oracle log =
  let epoch = log.epoch0 in
  List.iter
    (fun (r : L.response) ->
      let p = r.L.r_p in
      match log.ph.S.kind with
      | S.Open_loop _ when p.L.p_tag = L.tag_mutation ->
        attempt 1;
        (match json_of r.L.r_body with
        | Some j when is_ok j && int_field "epoch" j = Some (p.L.p_idx + 1) -> ()
        | _ -> fail "mutation %d answered %s" p.L.p_idx r.L.r_body)
      | S.Open_loop o ->
        ignore
          (check_lookup st oracle ~lo:p.L.p_lo ~hi:r.L.r_hi o.lookups.(p.L.p_idx) r.L.r_body)
      | S.Closed { codec = S.Json; requests } ->
        let qs = requests.(p.L.p_idx mod Array.length requests) in
        if Array.length qs = 1 then
          ignore (check_lookup st oracle ~lo:epoch ~hi:epoch qs.(0) r.L.r_body)
        else begin
          attempt (Array.length qs);
          match json_of r.L.r_body with
          | Some j when is_ok j ->
            (match J.member "results" j with
            | Ok (J.List rs) when List.length rs = Array.length qs ->
              List.iteri
                (fun i rj ->
                  let q = qs.(i) in
                  if not (Oracle.json_matches oracle (Oracle.verdict oracle ~epoch q.S.cls q.S.mem) rj)
                  then fail "batch entry %s::%s wrong: %s" (S.class_name st q.S.cls) q.S.mem (J.to_string rj))
                rs
            | _ -> for _ = 1 to Array.length qs do fail "batch without results" done)
          | _ -> for _ = 1 to Array.length qs do fail "batch answered %s" r.L.r_body done
        end
      | S.Closed { codec = S.Frame; requests } ->
        let qs = requests.(p.L.p_idx mod Array.length requests) in
        attempt (Array.length qs);
        let want q = Oracle.code_of (Oracle.verdict oracle ~epoch q.S.cls q.S.mem) in
        let op = if Array.length qs = 1 then Service.Frame.op_lookup else Service.Frame.op_batch_lookup in
        (match Service.Frame.decode_response ~op r.L.r_body with
        | Ok (_, Service.Frame.Ok_lookup code) when Array.length qs = 1 ->
          if code <> want qs.(0) then fail "1b lookup wrong: %d vs %d" code (want qs.(0))
        | Ok (_, Service.Frame.Ok_batch { ob_codes; _ }) when Array.length ob_codes = Array.length qs ->
          Array.iteri (fun i q -> if ob_codes.(i) <> want q then fail "1b batch entry wrong") qs
        | _ -> for _ = 1 to Array.length qs do fail "1b request failed" done))
    log.responses

(* ---- restart and durability -------------------------------------------------- *)

(* SIGKILL the server, restart it over the same store, and time until
   the recovered session gives a first correct answer.  The new load
   connections carry the mutation counts over. *)
let restart env st oracle live ~store =
  let acked = live.ld.L.acked and muts_sent = live.ld.L.muts_sent in
  L.close live.ld;
  Proc.kill live.srv;
  let t0 = Bclock.now_ns () in
  let srv = Proc.spawn ~exe:env.exe ~store ~log:(store ^ ".restart.log") in
  let ld =
    L.create ~acked ~muts_sent ~deadline:env.deadline [| srv.Proc.port; srv.Proc.port |]
  in
  let q = st.S.probes.(1) in
  if not (check_lookup st oracle ~lo:acked ~hi:acked q (L.call ld 0 (S.lookup_line st ~id:1 q)))
  then failwith "recovered session answered wrongly";
  ({ srv; ld }, float_of_int (Bclock.now_ns () - t0) /. 1e9)

(* Every acknowledged mutation survived: the recovered epoch, and a batch
   over every member name checked against the oracle. *)
let check_durable st oracle live ~acked =
  let ld = live.ld in
  let stats = expect_ok "stats after restart" (L.call ld 0 (control_line "stats")) in
  attempt 1;
  if int_field "epoch" stats <> Some acked then
    fail "restart: epoch %s, %d mutations acknowledged"
      (match int_field "epoch" stats with Some e -> string_of_int e | None -> "?") acked;
  let n_names = Array.length st.S.names in
  let qs =
    Array.init (min 512 (4 * n_names)) (fun i ->
        { S.cls = st.S.probes.(i mod Array.length st.S.probes).S.cls; mem = st.S.names.(i mod n_names) })
  in
  let body = L.call ld 0 (S.batch_line st ~id:2 qs) in
  match json_of body with
  | Some j when is_ok j ->
    (match J.member "results" j with
    | Ok (J.List rs) ->
      List.iteri
        (fun i rj ->
          attempt 1;
          let q = qs.(i) in
          if not (Oracle.json_matches oracle (Oracle.verdict oracle ~epoch:acked q.S.cls q.S.mem) rj)
          then fail "after restart: %s::%s wrong" (S.class_name st q.S.cls) q.S.mem)
        rs
    | _ -> fail "after restart: batch without results")
  | _ -> fail "after restart: batch failed"

(* ---- metrics ------------------------------------------------------------- *)

type metric = { m_name : string; m_value : float; m_unit : string; m_samples : int }

let metric m_name m_unit m_samples m_value = { m_name; m_value; m_unit; m_samples }

(* The end-to-end metrics BENCHMARK.json lists, in its order: the ones
   steady enough across seeds on a shared 2-CPU host to bound.  The
   tail percentiles and recover_s are measured and printed on every run
   but not bounded: their spread across seeds reaches or nears the
   largest bound allowed (README.md). *)
let bounded =
  [ "setup_s"; "lookup_p50_us"; "lookups_per_s.json"; "lookups_per_s.1b";
    "mutate_p50_ms"; "server_rss_mb" ]

let print_metric ?(note = "") m =
  Printf.printf "  %-30s %14.4f %-10s (n=%d)%s\n" m.m_name m.m_value m.m_unit m.m_samples note

let json_metrics ms =
  String.concat ", "
    (List.map
       (fun m -> Printf.sprintf "%S: {\"value\": %.9g, \"unit\": %S}" m.m_name m.m_value m.m_unit)
       ms)

(* Everything the untraced run measured, for the per-layer report. *)
type e2e = {
  metrics : metric list;
  logs : phase_log list;
  service_stats : J.t;
  session_stats : J.t;
  gen_cpu_s : float;
  server_cpu_s : float;
  requests : int;
  rtt : (Bclock.samples * string) option;
      (** idle-server round trips and the request kind they used *)
  steal_pct : float;  (** host steal time during the measured phases *)
}

(* Set-up is repeated within a run (see [fast_time]). *)
let setup_reps = 5

(* Interference from other tenants of the host only ever slows a
   measurement, so a figure repeated within a run reports the quartile
   on the fast side — the lower quartile of times, the upper quartile of
   rates — not the median: spells of steal over up to three quarters of
   a run's repetitions leave it unmoved. *)
let fast_time s = Bclock.percentile s 0.25
let fast_rate s = Bclock.percentile s 0.75

(* Open-loop latencies, in due order, are cut into windows of this many
   samples, so each window's p99 has ten samples beyond it; a percentile
   is the fast quartile of the windows' percentiles. *)
let latency_window = 1000

let windowed lat q =
  let a = Array.of_list (List.rev lat) in
  let wins = Bclock.samples () in
  let k = Array.length a / latency_window in
  for w = 0 to k - 1 do
    let s = Bclock.samples () in
    Array.iter (Bclock.add s) (Array.sub a (w * latency_window) latency_window);
    Bclock.add wins (Bclock.percentile s q)
  done;
  fast_time wins

let run_e2e env st oracle ~on_idle =
  let setups = Bclock.samples () in
  let rec reps k =
    let store = Proc.fresh_dir env.tmp "store" in
    let live, s = setup env st oracle ~store in
    Bclock.add setups s;
    if k < setup_reps then begin
      L.close live.ld;
      Proc.kill live.srv;
      Proc.rm_rf store;
      reps (k + 1)
    end
    else (live, store)
  in
  let live, store = reps 1 in
  let cpu0 = Unix.times () in
  let steal0, total0 = Proc.cpu_ticks () in
  (* Each round ends with the server SIGKILLed and restarted twice; the
     restarted session then takes a snapshot (untimed), so every restart
     recovers a snapshot plus one round's WAL — the same work each time,
     and eight samples spread over the run rather than back to back at
     its end.  The server's CPU time and peak RSS are summed resp. maxed
     over its processes. *)
  let recovers = Bclock.samples () in
  let server_cpu_s = ref 0. and rss = ref 0. in
  let final = ref None in
  let live = ref live and logs = ref [] in
  let cpu_at_round_start = ref (Proc.cpu_s !live.srv.Proc.pid) in
  List.iteri
    (fun pi (ph : S.phase) ->
      logs := run_phase st !live pi ph :: !logs;
      let next = List.nth_opt st.S.phases (pi + 1) in
      if Option.fold ~none:true ~some:(fun n -> n.S.round <> ph.S.round) next then begin
        let pid = !live.srv.Proc.pid in
        server_cpu_s := !server_cpu_s +. Proc.cpu_s pid -. !cpu_at_round_start;
        rss := Float.max !rss (Proc.peak_rss_mb pid);
        (* the last round's server, warm and idle, answers the stats the
           per-layer report reads and the idle round trips *)
        if next = None then
          final :=
            Some
              ( expect_ok "stats" (L.call !live.ld 0 service_stats_line),
                expect_ok "stats" (L.call !live.ld 0 (control_line "stats")),
                on_idle !live.srv );
        (* two restarts over the same state, then the snapshot *)
        let l =
          List.fold_left
            (fun l () ->
              let l, s = restart env st oracle l ~store in
              Bclock.add recovers s;
              l)
            !live [ (); () ]
        in
        ignore (expect_ok "snapshot" (L.call l.ld 0 (control_line "snapshot")));
        cpu_at_round_start := Proc.cpu_s l.srv.Proc.pid;
        live := l
      end)
    st.S.phases;
  let live = !live and logs = List.rev !logs in
  let service_stats, session_stats, rtt = Option.get !final in
  let cpu1 = Unix.times () in
  let steal1, total1 = Proc.cpu_ticks () in
  (* how much CPU the host's other tenants took during the measured
     phases: a validity note for this run's figures *)
  let steal_pct =
    100. *. float_of_int (steal1 - steal0) /. float_of_int (max 1 (total1 - total0))
  in
  Printf.printf "# host steal during the measured phases: %.1f%% of CPU time\n" steal_pct;
  let acked = live.ld.L.acked in
  Printf.printf "# restarts (s): %s\n"
    (String.concat " " (Array.to_list (Array.map (Printf.sprintf "%.3f") (Bclock.sorted recovers))));
  Printf.printf "# set-ups (s): %s\n"
    (String.concat " " (Array.to_list (Array.map (Printf.sprintf "%.3f") (Bclock.sorted setups))));
  check_durable st oracle live ~acked;
  L.close live.ld;
  Proc.kill live.srv;
  List.iter (check_phase st oracle) logs;
  (* the metrics *)
  let mutate_lat = Bclock.samples () in
  let mutate_by_round = Array.init S.rounds (fun _ -> Bclock.samples ()) in
  let lookup_lat = ref [] and nl = ref 0 in
  let window_rates codec =
    let s = Bclock.samples () in
    List.iter
      (fun l ->
        match (l.ph.S.kind, l.throughput) with
        | S.Closed { codec = c; _ }, Some rates when c = codec ->
          Array.iter (Bclock.add s) (Bclock.sorted rates)
        | _ -> ())
      logs;
    s
  in
  List.iter
    (fun l ->
      match l.ph.S.kind with
      | S.Open_loop o ->
        let by_due =
          List.sort (fun a b -> compare a.L.r_p.L.p_due b.L.r_p.L.p_due) l.responses
        in
        List.iter
          (fun (r : L.response) ->
            let d = float_of_int (r.L.r_recv - r.L.r_p.L.p_due) in
            if r.L.r_p.L.p_tag = L.tag_mutation then begin
              Bclock.add mutate_lat (d /. 1e6);
              Bclock.add mutate_by_round.(l.ph.S.round) (d /. 1e6)
            end
            else if o.latency then begin
              lookup_lat := (d /. 1e3) :: !lookup_lat;
              incr nl
            end)
          by_due
      | S.Closed _ -> ())
    logs;
  let rj = window_rates S.Json and rb = window_rates S.Frame in
  let nm = Bclock.count mutate_lat in
  let requests = List.fold_left (fun n l -> n + List.length l.responses) 0 logs in
  let metrics =
    [ metric "setup_s" "s" setup_reps (fast_time setups);
      metric "lookup_p50_us" "us" !nl (windowed !lookup_lat 0.5);
      metric "lookup_p90_us" "us" !nl (windowed !lookup_lat 0.9);
      metric "lookup_p99_us" "us" !nl (windowed !lookup_lat 0.99);
      metric "lookups_per_s.json" "lookups/s" (Bclock.count rj) (fast_rate rj);
      metric "lookups_per_s.1b" "lookups/s" (Bclock.count rb) (fast_rate rb);
      (* the fast quartile of the rounds' medians *)
      metric "mutate_p50_ms" "ms" nm
        (let medians = Bclock.samples () in
         Array.iter
           (fun s -> if Bclock.count s > 0 then Bclock.add medians (Bclock.percentile s 0.5))
           mutate_by_round;
         fast_time medians);
      metric "mutate_p90_ms" "ms" nm (Bclock.percentile mutate_lat 0.9);
      metric "mutate_p99_ms" "ms" nm (Bclock.percentile mutate_lat 0.99);
      metric "recover_s" "s" (Bclock.count recovers) (fast_time recovers);
      metric "server_rss_mb" "MiB" S.rounds !rss ]
  in
  Proc.rm_rf store;
  { metrics; logs; service_stats; session_stats;
    gen_cpu_s = cpu1.Unix.tms_utime +. cpu1.Unix.tms_stime -. cpu0.Unix.tms_utime -. cpu0.Unix.tms_stime;
    server_cpu_s = !server_cpu_s; requests; rtt; steal_pct }

(* ---- entry point -------------------------------------------------------- *)

let result_path env w seed trace what ext =
  let dir = Filename.concat env.out "results" in
  Proc.mkdir_p dir;
  Filename.concat dir (Printf.sprintf "%s-%s-seed%d-trace%d.%s" what (S.name w) seed trace ext)

(* The run's record: host header, every metric with its sample count,
   and the failure tally. *)
let write_results path ~header ~correct ms =
  let j =
    J.Obj
      [ ("host", J.Obj (List.map (fun (k, v) -> (k, J.String v)) header));
        ("correct", J.Bool correct);
        ("attempted", J.Int !attempted);
        ("failed", J.Int !failed);
        ( "metrics",
          J.Obj
            (List.map
               (fun m ->
                 ( m.m_name,
                   J.Obj
                     [ ("value", J.String (Printf.sprintf "%.9g" m.m_value));
                       ("unit", J.String m.m_unit); ("samples", J.Int m.m_samples) ] ))
               ms) ) ]
  in
  Out_channel.with_open_bin path (fun oc -> output_string oc (J.to_string ~pretty:true j))

let host_header () =
  [ ("nproc", string_of_int (Proc.nproc ()));
    ("ocaml", Sys.ocaml_version);
    ("traffic", "loopback TCP 127.0.0.1, one load process, one thread");
    ("fsync", "the sandbox filesystem's fsync cost, not a storage device's") ]

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 20 and trace = ref 0 in
  let exe = ref "_build/default/bin/cxxlookup.exe" and out = ref ".perfbench" in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, "point|batch|edit");
      ("--seed", Arg.Set_int seed, "N  stream seed");
      ("--seconds", Arg.Set_int seconds, "S  measured seconds");
      ("--trace", Arg.Set_int trace, "0|1  per-layer traced run");
      ("--server-exe", Arg.Set_string exe, "PATH  the cxxlookup binary");
      ("--out", Arg.Set_string out, "DIR  scratch and result files") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perfbench.exe --workload W --seed N --seconds S --trace 0|1";
  let w =
    match S.of_name !workload with
    | Some w -> w
    | None -> prerr_endline "perfbench: --workload must be point, batch or edit"; exit 2
  in
  if !seconds < 1 then (prerr_endline "perfbench: --seconds must be >= 1"; exit 2);
  if not (Sys.file_exists !exe) then (prerr_endline ("perfbench: no server binary " ^ !exe); exit 2);
  Proc.install_handlers ~alarm_s:175;
  (* a large minor heap keeps collector pauses out of the load loop *)
  Gc.set { (Gc.get ()) with Gc.minor_heap_size = 8 lsl 20; space_overhead = 200 };
  let start = Bclock.now_ns () in
  let env =
    { exe = !exe;
      (* stores, server logs and twin stores of this run; removed at exit *)
      tmp = Proc.fresh_dir (Filename.concat !out "tmp") "run";
      out = !out;
      deadline = start + 170_000_000_000 }
  in
  List.iter (fun (k, v) -> Printf.printf "# %s: %s\n" k v) (host_header ());
  Printf.printf "# workload %s, seed %d, %d s, trace %d\n%!" (S.name w) !seed !seconds !trace;
  let st = S.generate w ~seed:!seed ~seconds:!seconds in
  let oracle = Oracle.create st.S.graph st.S.mutations in
  let on_idle srv = if !trace = 1 then Some (Traced.idle_rtt st srv) else None in
  let e2e =
    try run_e2e env st oracle ~on_idle
    with e ->
      Printf.eprintf "perfbench: %s\n" (match e with Failure m | Sys_error m -> m | e -> Printexc.to_string e);
      exit 1
  in
  List.iter (fun m -> Printf.printf "# failure: %s\n" m) (List.rev !failure_notes);
  Printf.printf "end-to-end (untraced) — failed_frac %.6f (%d of %d)\n"
    (float_of_int !failed /. float_of_int (max 1 !attempted)) !failed !attempted;
  List.iter
    (fun m ->
      print_metric m ~note:(if List.mem m.m_name bounded then "" else "  [not bounded]"))
    e2e.metrics;
  let reported =
    if !trace = 0 then List.filter (fun m -> List.mem m.m_name bounded) e2e.metrics
    else begin
      let layers = Traced.run env.tmp ~spans_path:(result_path env w !seed !trace "spans" "tsv") st (List.map (fun m -> (m.m_name, m.m_value)) e2e.metrics)
        ~service_stats:e2e.service_stats ~session_stats:e2e.session_stats
        ~gen_late:(List.filter_map (fun l -> l.late) e2e.logs)
        ~gen_cpu_s:e2e.gen_cpu_s ~server_cpu_s:e2e.server_cpu_s ~requests:e2e.requests
        ~rtt:e2e.rtt in
      List.map (fun (n, u, k, v) -> metric n u k v) layers
    end
  in
  if !trace = 1 then begin
    print_endline "per-layer (traced replay):";
    List.iter print_metric reported
  end;
  List.iter
    (fun m ->
      if not (Float.is_finite m.m_value) then begin
        Printf.eprintf "perfbench: metric %s has no value\n" m.m_name;
        exit 1
      end)
    reported;
  let correct = !failed = 0 in
  write_results (result_path env w !seed !trace "result" "json")
    ~header:(host_header () @ [ ("steal_pct", Printf.sprintf "%.2f" e2e.steal_pct) ])
    ~correct
    (if !trace = 0 then e2e.metrics else e2e.metrics @ reported);
  Printf.printf "# total %.1f s\n" (Bclock.seconds_since start);
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    correct !attempted !failed (json_metrics reported)
