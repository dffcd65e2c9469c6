(* Tests for the networked server: the backpressure primitives
   (Bqueue, Rwlock), protocol hardening over real sockets (pipelining
   order, oversized lines, framing across read boundaries, torn lines
   at the idle timeout, explicit
   overload, slow requests and non-reading clients against the idle
   timeout, one server thread per connection), and a QCheck property
   that concurrent read mixes over K connections match the spec
   oracle. *)

module G = Chg.Graph
module J = Chg.Json
module Path = Subobject.Path
module Spec = Subobject.Spec
module W = Hiergen.Workload
module Server = Service.Server
module Bqueue = Net.Bqueue
module Rwlock = Net.Rwlock

(* ---- Bqueue ---- *)

let test_bqueue_order_and_bounds () =
  let q = Bqueue.create 4 in
  List.iter (fun i -> Alcotest.(check bool) "push" true (Bqueue.push q i))
    [ 1; 2; 3; 4 ];
  Alcotest.(check bool) "try_push refused when full" false (Bqueue.try_push q 5);
  Alcotest.(check int) "length" 4 (Bqueue.length q);
  Alcotest.(check (option int)) "fifo" (Some 1) (Bqueue.pop q);
  Alcotest.(check bool) "room again" true (Bqueue.try_push q 5);
  Bqueue.close q;
  Alcotest.(check bool) "push refused after close" false (Bqueue.push q 6);
  Alcotest.(check (list (option int))) "drains then None"
    [ Some 2; Some 3; Some 4; Some 5; None ]
    (List.init 5 (fun _ -> Bqueue.pop q));
  Alcotest.check_raises "zero capacity rejected"
    (Invalid_argument "Bqueue.create: capacity must be >= 1") (fun () ->
      ignore (Bqueue.create 0))

let test_bqueue_backpressure () =
  (* capacity 1: the producer can only ever be one ahead — every item
     still arrives, in order, through the blocking push *)
  let q = Bqueue.create 1 in
  let n = 200 in
  let producer =
    Thread.create
      (fun () ->
        for i = 1 to n do
          ignore (Bqueue.push q i)
        done;
        Bqueue.close q)
      ()
  in
  let got = ref [] in
  let rec drain () =
    match Bqueue.pop q with
    | Some x ->
      got := x :: !got;
      drain ()
    | None -> ()
  in
  drain ();
  Thread.join producer;
  Alcotest.(check (list int)) "all items, in order"
    (List.init n (fun i -> i + 1))
    (List.rev !got)

(* ---- Rwlock ---- *)

let test_rwlock_writer_exclusive () =
  let lock = Rwlock.create () in
  let counter = ref 0 in
  (* non-atomic increments stay exact only if writers really exclude
     each other *)
  let writers =
    List.init 4 (fun _ ->
        Thread.create
          (fun () ->
            for _ = 1 to 1000 do
              Rwlock.with_write lock (fun () ->
                  let v = !counter in
                  Thread.yield ();
                  counter := v + 1)
            done)
          ())
  in
  List.iter Thread.join writers;
  Alcotest.(check int) "every write observed" 4000 !counter

let test_rwlock_readers_concurrent () =
  let lock = Rwlock.create () in
  let inside = Atomic.make 0 in
  let peak = Atomic.make 0 in
  let readers =
    List.init 2 (fun _ ->
        Thread.create
          (fun () ->
            Rwlock.with_read lock (fun () ->
                let now = 1 + Atomic.fetch_and_add inside 1 in
                if now > Atomic.get peak then Atomic.set peak now;
                (* give the other reader time to enter *)
                Thread.delay 0.05;
                Atomic.decr inside))
          ())
  in
  List.iter Thread.join readers;
  Alcotest.(check int) "both readers held it at once" 2 (Atomic.get peak)

(* ---- a live server on an ephemeral port ---- *)

let fig9_source =
  In_channel.with_open_text "../examples/fig9.cpp" In_channel.input_all

let with_net_server ?(config = Net.Server.default_config) f =
  let srv = Server.create () in
  let net = Net.Server.create ~config srv (Net.Server.Tcp ("127.0.0.1", 0)) in
  let th = Thread.create Net.Server.run net in
  let addr = Net.Server.bound_addr net in
  Fun.protect
    ~finally:(fun () ->
      Net.Server.stop net;
      Thread.join th)
    (fun () -> f net addr)

let with_server ?config f = with_net_server ?config (fun _ addr -> f addr)

let ok_resp line =
  match J.of_string line with
  | Ok j -> J.member "ok" j = Ok (J.Bool true)
  | Error _ -> false

let error_code line =
  match J.of_string line with
  | Ok j ->
    (match J.member "error" j with
    | Ok e ->
      (match J.member "code" e with Ok (J.String s) -> s | _ -> "?")
    | Error _ -> "?")
  | Error _ -> "?"

let open_line ?(session = "s") source =
  J.to_string
    (J.Obj
       [ ("id", J.Int 0); ("op", J.String "open");
         ("session", J.String session); ("source", J.String source) ])

let lookup_line ~session ~id ~cls ~member =
  J.to_string
    (J.Obj
       [ ("id", J.Int id); ("op", J.String "lookup");
         ("session", J.String session); ("class", J.String cls);
         ("member", J.String member) ])

let must_recv cl =
  match Net.Client.recv_line cl with
  | Some l -> l
  | None -> Alcotest.fail "server closed unexpectedly"

(* ---- protocol hardening over real sockets ---- *)

let test_pipelining_order () =
  with_server @@ fun addr ->
  let cl = Net.Client.connect addr in
  Net.Client.send_line cl (open_line fig9_source);
  Alcotest.(check bool) "open ok" true (ok_resp (must_recv cl));
  let n = 40 in
  (* fire the whole burst before reading anything: responses must come
     back in request order, ids echoed *)
  for i = 1 to n do
    Net.Client.send_line cl
      (lookup_line ~session:"s" ~id:i ~cls:"E" ~member:"m")
  done;
  for i = 1 to n do
    let resp = must_recv cl in
    Alcotest.(check bool) (Printf.sprintf "response %d ok" i) true
      (ok_resp resp);
    match J.of_string resp with
    | Ok j ->
      Alcotest.(check bool) (Printf.sprintf "id %d echoed in order" i) true
        (J.member "id" j = Ok (J.Int i))
    | Error e -> Alcotest.failf "bad response: %s" e
  done;
  Net.Client.close cl

let test_oversized_line_survives () =
  let config = { Net.Server.default_config with max_line = 128 } in
  with_server ~config @@ fun addr ->
  let cl = Net.Client.connect addr in
  Net.Client.send_line cl (String.make 4096 'x');
  let resp = must_recv cl in
  Alcotest.(check string) "oversized answered bad_request" "bad_request"
    (error_code resp);
  (* the connection survived: a well-formed request still answers *)
  Net.Client.send_line cl {|{"id":7,"op":"stats"}|};
  let resp = must_recv cl in
  Alcotest.(check bool) "connection alive after oversized line" true
    (ok_resp resp);
  Net.Client.close cl

let net_stat line name =
  match J.of_string line with
  | Ok j ->
    (match
       let ( let* ) = Result.bind in
       let* service = J.member "service" j in
       let* net = J.member "net" service in
       J.member name net
     with
    | Ok (J.Int n) -> n
    | _ -> Alcotest.failf "stats lacks net.%s: %s" name line)
  | Error e -> Alcotest.failf "stats not JSON: %s" e

let test_torn_line_times_out () =
  let config = { Net.Server.default_config with idle_timeout = 0.3 } in
  with_server ~config @@ fun addr ->
  let cl = Net.Client.connect addr in
  (* a complete request first, then a torn partial line, never finished *)
  Net.Client.send_line cl {|{"id":1,"op":"stats"}|};
  Alcotest.(check bool) "first request ok" true (ok_resp (must_recv cl));
  Net.Client.send_line cl {|{"id":2,"op":"stats"}|};
  (* partial line: bytes but no newline — the slowloris shape *)
  Net.Client.send_raw cl {|{"id":3,"op":|};
  (* the pipelined complete request still answers... *)
  Alcotest.(check bool) "pipelined request answered before close" true
    (ok_resp (must_recv cl));
  (* ...then the deadline passes and the server closes cleanly without
     ever executing the torn fragment *)
  Alcotest.(check (option string)) "connection closed at the deadline" None
    (Net.Client.recv_line cl);
  Net.Client.close cl;
  (* other clients are unaffected, and the close is attributed to the
     timeout counters *)
  let cl2 = Net.Client.connect addr in
  Net.Client.send_line cl2 {|{"id":1,"op":"stats"}|};
  let stats = must_recv cl2 in
  Alcotest.(check int) "timed-out counter ticked" 1
    (net_stat stats "connections_timed_out");
  Alcotest.(check int) "no spurious overload" 0 (net_stat stats "overloaded");
  Net.Client.close cl2

(* One byte stream mixing every framing case — CRLF, blank lines, an
   oversized line, a 0xB1 byte inside a JSON line, a 1b frame, an
   oversized frame whose skipped payload holds newlines and 0xB1 bytes —
   must draw the same response bytes however the reads split it. *)
let framing_stream () =
  let le32 n = String.init 4 (fun k -> Char.chr ((n lsr (8 * k)) land 0xff)) in
  let symbols =
    Service.Frame.encode_request
      { Service.Frame.fr_id = 9; fr_session = "s"; fr_op = Service.Frame.Symbols }
  in
  let skipped = String.init 3000 (fun k -> if k mod 7 = 0 then '\n' else '\xb1') in
  String.concat ""
    [ open_line fig9_source; "\r\n"; "\n"; "  \r\n";
      lookup_line ~session:"s" ~id:1 ~cls:"E" ~member:"m"; "\r\n";
      String.make 3000 'x'; "\n";
      "{\"id\":2,\"op\":\"\xb1\"}\n";
      symbols;
      "\xb1"; String.make 1 (Char.chr Service.Frame.op_lookup); le32 3000;
      skipped;
      lookup_line ~session:"s" ~id:3 ~cls:"E" ~member:"m"; "\n" ]

(* Write [stream] in chunks of the given sizes (cycled), half-close, and
   read every response byte until the server closes. *)
let transcript ~config sizes stream =
  with_server ~config @@ fun addr ->
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  (match addr with
  | Net.Server.Tcp (host, port) ->
    Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_of_string host, port))
  | Net.Server.Unix_path _ -> Alcotest.fail "expected a TCP listener");
  let n = String.length stream in
  let rec send off k =
    if off < n then begin
      let len = min (List.nth sizes (k mod List.length sizes)) (n - off) in
      let w = Unix.write_substring fd stream off len in
      send (off + w) (k + 1)
    end
  in
  send 0 0;
  Unix.shutdown fd Unix.SHUTDOWN_SEND;
  let out = Buffer.create 4096 and chunk = Bytes.create 4096 in
  let rec recv () =
    match Unix.read fd chunk 0 (Bytes.length chunk) with
    | 0 -> ()
    | k ->
      Buffer.add_subbytes out chunk 0 k;
      recv ()
  in
  recv ();
  Unix.close fd;
  Buffer.contents out

let contains s sub =
  let n = String.length sub in
  let rec at i = i + n <= String.length s && (String.sub s i n = sub || at (i + 1)) in
  at 0

let test_framing_read_boundaries () =
  let config = { Net.Server.default_config with max_line = 2048 } in
  let stream = framing_stream () in
  let whole = transcript ~config [ String.length stream ] stream in
  List.iter
    (fun what ->
      if not (contains whole what) then
        Alcotest.failf "transcript lacks %S:\n%S" what whole)
    [ {|"id":0,"ok":true|}; {|"id":1,"ok":true|};
      "line exceeds 2048 bytes (3000 read)"; {|"id":2,"ok":false|};
      "frame payload exceeds 2048 bytes (3000 declared)";
      {|"id":3,"ok":true|} ];
  List.iter
    (fun (what, sizes) ->
      Alcotest.(check string) what whole (transcript ~config sizes stream))
    [ ("one byte per write", [ 1 ]);
      ("uneven writes", [ 5; 1; 4096; 3; 777; 2; 6 ]) ]

let test_overload_explicit () =
  (* queue_depth 0: the admission bound is already exhausted, so every
     parsed request is answered overloaded — deterministically *)
  let config = { Net.Server.default_config with queue_depth = 0 } in
  with_server ~config @@ fun addr ->
  let cl = Net.Client.connect addr in
  Net.Client.send_line cl (open_line fig9_source);
  let resp = must_recv cl in
  Alcotest.(check string) "rejected with overloaded" "overloaded"
    (error_code resp);
  (match J.of_string resp with
  | Ok j ->
    Alcotest.(check bool) "id echoed on rejection" true
      (J.member "id" j = Ok (J.Int 0))
  | Error e -> Alcotest.failf "bad response: %s" e);
  (* the connection survives rejection; the counter is visible — but
     stats is itself a request, so read it through the registry *)
  Net.Client.send_line cl {|{"id":1,"op":"stats"}|};
  Alcotest.(check string) "stats rejected too" "overloaded"
    (error_code (must_recv cl));
  Net.Client.close cl

let test_overload_counter_visible () =
  with_server @@ fun addr ->
  let cl = Net.Client.connect addr in
  (* a max-conns-0-style rejection is hard to time; instead check the
     zero state is reported — the counter's plumbing end to end *)
  Net.Client.send_line cl {|{"id":1,"op":"stats"}|};
  let stats = must_recv cl in
  Alcotest.(check int) "active connections gauge" 1
    (net_stat stats "connections_active");
  Alcotest.(check int) "accepted counter" 1
    (net_stat stats "connections_accepted");
  Alcotest.(check int) "overloaded starts at zero" 0
    (net_stat stats "overloaded");
  Net.Client.close cl

let stats_line = {|{"id":1,"op":"stats"}|}

let stats cl =
  Net.Client.send_line cl stats_line;
  must_recv cl

let test_slow_request_keeps_connection () =
  (* the idle deadline counts client silence only: a request that
     executes for far longer than [idle_timeout] must not cost the
     connection.  The request is made slow deterministically — it waits
     behind the exclusive side of the verb-class lock, as it would
     behind a long mutation — and measured 1.0 s against a 0.25 s
     idle timeout (the hold plus well under a millisecond). *)
  let config = { Net.Server.default_config with idle_timeout = 0.25 } in
  with_net_server ~config @@ fun net addr ->
  let cl = Net.Client.connect addr in
  let held = Atomic.make false in
  let holder =
    Thread.create
      (fun () ->
        Net.Server.exclusively net (fun () ->
            Atomic.set held true;
            Thread.delay 1.0))
      ()
  in
  while not (Atomic.get held) do
    Thread.yield ()
  done;
  let t0 = Unix.gettimeofday () in
  Net.Client.send_line cl stats_line;
  Alcotest.(check bool) "slow request answered" true (ok_resp (must_recv cl));
  let took = Unix.gettimeofday () -. t0 in
  Thread.join holder;
  Alcotest.(check bool)
    (Printf.sprintf "request ran %.2f s, over 2 idle timeouts" took)
    true (took > 2. *. config.idle_timeout);
  (* the follow-up is sent only after the slow answer arrived, so it
     finds the connection open only if execution was never charged *)
  let follow_up = stats cl in
  Alcotest.(check bool) "follow-up answered on the same connection" true
    (ok_resp follow_up);
  Alcotest.(check int) "nothing timed out" 0
    (net_stat follow_up "connections_timed_out");
  Net.Client.close cl

(* A raw client socket with a tiny receive buffer, so a peer that
   never reads fills the connection after little data. *)
let connect_tiny_rcvbuf addr =
  match addr with
  | Net.Server.Tcp (host, port) ->
    let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    Unix.setsockopt_int fd Unix.SO_RCVBUF 4096;
    (* a bound on the test itself: a send blocked on a server that
       never closes fails instead of hanging *)
    Unix.setsockopt_float fd Unix.SO_SNDTIMEO 10.;
    Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_of_string host, port));
    fd
  | Net.Server.Unix_path _ -> Alcotest.fail "tcp only"

let stats_until cl pred =
  (* poll server stats until [pred] holds; 10 s bound *)
  let give_up = Unix.gettimeofday () +. 10. in
  let rec go () =
    let s = stats cl in
    if pred s then s
    else if Unix.gettimeofday () > give_up then
      Alcotest.failf "condition never held: %s" s
    else begin
      Thread.delay 0.02;
      go ()
    end
  in
  go ()

let test_slow_consumer_isolated () =
  (* client A pipelines large batch_lookups and never reads.  Its
     connection thread blocks writing a response — outside the lock —
     so client B's mutate (exclusive side) and lookup still answer
     while A is stuck, and A is closed once a write makes no progress
     for [idle_timeout]. *)
  let config = { Net.Server.default_config with idle_timeout = 1.5 } in
  with_server ~config @@ fun addr ->
  let b = Net.Client.connect addr in
  Net.Client.send_line b (open_line fig9_source);
  Alcotest.(check bool) "open ok" true (ok_resp (must_recv b));
  let batch =
    J.to_string
      (J.Obj
         [ ("id", J.Int 1); ("op", J.String "batch_lookup");
           ("session", J.String "s");
           ( "queries",
             J.List
               (List.init 2000 (fun _ ->
                    J.Obj
                      [ ("class", J.String "E"); ("member", J.String "m") ]))
           ) ])
    ^ "\n"
  in
  let a = connect_tiny_rcvbuf addr in
  let sent = Atomic.make 0 in
  let send_failed = Atomic.make false in
  let sender =
    Thread.create
      (fun () ->
        try
          for _ = 1 to 1000 do
            let n = String.length batch in
            let off = ref 0 in
            while !off < n do
              off := !off + Unix.write_substring a batch !off (n - !off)
            done;
            Atomic.incr sent
          done
        with Unix.Unix_error _ -> Atomic.set send_failed true)
      ()
  in
  (* A is stuck once its sends stop making progress: the server no
     longer reads A, because A's thread is blocked writing to it *)
  let rec wait_stalled last =
    Thread.delay 0.1;
    let now = Atomic.get sent in
    if now <> last || now = 0 then wait_stalled now
  in
  wait_stalled (-1);
  let before = stats b in
  Alcotest.(check int) "A still open while stuck" 2
    (net_stat before "connections_active");
  Net.Client.send_line b
    (J.to_string
       (J.Obj
          [ ("id", J.Int 2); ("op", J.String "mutate");
            ("session", J.String "s");
            ( "add_member",
              J.Obj
                [ ("class", J.String "E");
                  ("member", J.Obj [ ("name", J.String "fresh") ]) ] ) ]));
  Alcotest.(check bool) "B's mutate answered while A is stuck" true
    (ok_resp (must_recv b));
  Net.Client.send_line b
    (lookup_line ~session:"s" ~id:3 ~cls:"E" ~member:"fresh");
  Alcotest.(check bool) "B's lookup answered while A is stuck" true
    (ok_resp (must_recv b));
  let during = stats b in
  Alcotest.(check int) "A not yet timed out" 0
    (net_stat during "connections_timed_out");
  (* A's deadline passes: the server closes it as timed out *)
  let after =
    stats_until b (fun s -> net_stat s "connections_timed_out" = 1)
  in
  Alcotest.(check int) "only B remains" 1
    (net_stat after "connections_active");
  Thread.join sender;
  Alcotest.(check bool) "A's pending sends fail once it is closed" true
    (Atomic.get send_failed);
  Unix.close a;
  Net.Client.close b

(* OS threads in this process, from the [Threads:] line of
   /proc/self/status. *)
let os_threads () =
  In_channel.with_open_text "/proc/self/status" (fun ic ->
      let rec go () =
        match In_channel.input_line ic with
        | None -> Alcotest.fail "no Threads: line in /proc/self/status"
        | Some l ->
          (match String.split_on_char ':' l with
          | [ "Threads"; n ] -> int_of_string (String.trim n)
          | _ -> go ())
      in
      go ())

let test_one_thread_per_connection () =
  (* a structural, timing-free guard: every connection costs the server
     exactly one thread — a per-connection pipeline of several threads
     fails here on any host *)
  with_server @@ fun addr ->
  let use cl = Alcotest.(check bool) "answered" true (ok_resp (stats cl)) in
  (* the first connection on a worker domain also starts that domain's
     tick thread; take it out of the count *)
  let warm = Net.Client.connect addr in
  use warm;
  let base = os_threads () in
  let n = 5 in
  let conns = List.init n (fun _ -> Net.Client.connect addr) in
  List.iter use conns;
  Alcotest.(check int) "N connections add N threads" (base + n)
    (os_threads ());
  List.iter Net.Client.close conns;
  Net.Client.close warm

(* ---- QCheck: concurrent read mixes match the spec oracle ---- *)

let qc_members = [ "m"; "n"; "p" ]

let instance_gen =
  QCheck.Gen.(
    map
      (fun (n, max_bases, vp, dp, seed) ->
        Hiergen.Families.random_dag ~n ~max_bases
          ~virtual_prob:(float_of_int vp /. 10.)
          ~declare_prob:(float_of_int dp /. 10.)
          ~members:qc_members ~seed)
      (tup5 (int_range 1 12) (int_range 1 3) (int_range 0 10)
         (int_range 1 6) (int_range 0 10000)))

let instance_arb =
  QCheck.make instance_gen ~print:(fun i ->
      i.Hiergen.Families.description ^ "\n"
      ^ Format.asprintf "%a" G.pp i.Hiergen.Families.graph)

let lookup_matches_spec g (q : W.query) resp =
  match J.of_string resp with
  | Error _ -> false
  | Ok r ->
    let verdict =
      match J.member "verdict" r with
      | Ok (J.String s) -> s
      | _ -> "?"
    in
    (match Spec.lookup_static g q.W.q_class q.W.q_member with
    | Spec.Resolved p ->
      verdict = "red"
      && J.member "resolves_to" r = Ok (J.String (G.name g (Path.ldc p)))
    | Spec.Ambiguous _ -> verdict = "blue"
    | Spec.Undeclared -> verdict = "none")

let prop_concurrent_reads_match_spec =
  QCheck.Test.make ~count:12
    ~name:"concurrent reads over K connections = spec oracle" instance_arb
    (fun { Hiergen.Families.graph = g; _ } ->
      let config = { Net.Server.default_config with workers = 2 } in
      with_server ~config @@ fun addr ->
      let setup = Net.Client.connect addr in
      let opened =
        Net.Client.request setup
          (J.to_string
             (J.Obj
                [ ("id", J.Int 0); ("op", J.String "open");
                  ("session", J.String "q");
                  ("chg", Chg.Serialize.to_json g) ]))
      in
      (match opened with
      | Some r when ok_resp r -> ()
      | _ -> Alcotest.fail "open failed");
      let ws = Array.of_list (W.exhaustive g) in
      let k = 4 in
      let failures = Atomic.make 0 in
      let worker conn_idx =
        let cl = Net.Client.connect addr in
        (* every connection walks the whole workload, phase-shifted, so
           the same columns are hit from several domains at once *)
        Array.iteri
          (fun i _ ->
            let q = ws.((i + conn_idx) mod Array.length ws) in
            let line =
              lookup_line ~session:"q" ~id:i
                ~cls:(G.name g q.W.q_class)
                ~member:q.W.q_member
            in
            match Net.Client.request cl line with
            | Some resp when lookup_matches_spec g q resp -> ()
            | _ -> Atomic.incr failures)
          ws;
        Net.Client.close cl
      in
      let threads =
        List.init k (fun i -> Thread.create (fun () -> worker i) ())
      in
      List.iter Thread.join threads;
      Net.Client.close setup;
      Atomic.get failures = 0)

let suite =
  [ Alcotest.test_case "bqueue order, bounds, close" `Quick
      test_bqueue_order_and_bounds;
    Alcotest.test_case "bqueue blocking backpressure" `Quick
      test_bqueue_backpressure;
    Alcotest.test_case "rwlock writers exclusive" `Quick
      test_rwlock_writer_exclusive;
    Alcotest.test_case "rwlock readers concurrent" `Quick
      test_rwlock_readers_concurrent;
    Alcotest.test_case "pipelined responses in request order" `Quick
      test_pipelining_order;
    Alcotest.test_case "oversized line answers bad_request, conn survives"
      `Quick test_oversized_line_survives;
    Alcotest.test_case "torn line closes cleanly at the idle timeout"
      `Quick test_torn_line_times_out;
    Alcotest.test_case "framing independent of read boundaries" `Quick
      test_framing_read_boundaries;
    Alcotest.test_case "queue_depth exhaustion answers overloaded" `Quick
      test_overload_explicit;
    Alcotest.test_case "connection gauges visible in stats" `Quick
      test_overload_counter_visible;
    Alcotest.test_case "slow request does not count against idle timeout"
      `Quick test_slow_request_keeps_connection;
    Alcotest.test_case "non-reading client holds neither lock nor thread"
      `Quick test_slow_consumer_isolated;
    Alcotest.test_case "one server thread per connection" `Quick
      test_one_thread_per_connection ]
  @ List.map QCheck_alcotest.to_alcotest [ prop_concurrent_reads_match_spec ]
