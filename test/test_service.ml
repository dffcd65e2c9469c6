(* Tests for the lookup service layer: memo eviction, the compiled-table
   cache, sessions (including mutation repair of compiled columns), the
   cxxlookup-rpc/1 protocol codec, and the request dispatcher. *)

module G = Chg.Graph
module J = Chg.Json
module Path = Subobject.Path
module Spec = Subobject.Spec
module Engine = Lookup_core.Engine
module Memo = Lookup_core.Memo
module Packed = Lookup_core.Packed
module Table_cache = Service.Table_cache
module Session = Service.Session
module Protocol = Service.Protocol
module Server = Service.Server
module W = Hiergen.Workload

let graph () = Hiergen.Figures.fig3 ()
let members = [ "foo"; "bar" ]

let verdict_t g =
  Alcotest.testable
    (fun ppf v ->
      match v with
      | None -> Format.pp_print_string ppf "none"
      | Some v -> Engine.pp_verdict g ppf v)
    ( = )

(* ---- Memo eviction (the residency-cap contract) ---- *)

let test_memo_cap_and_correctness () =
  let g = graph () in
  let cl = Chg.Closure.compute g in
  let eng = Engine.build cl in
  let memo = Memo.create ~max_entries:2 cl in
  (* run everything twice: the second pass exercises lookups whose cached
     entries were evicted by later fills *)
  for _ = 1 to 2 do
    G.iter_classes g (fun c ->
        List.iter
          (fun m ->
            Alcotest.check (verdict_t g)
              (Printf.sprintf "verdict %s::%s under 2-entry cap" (G.name g c)
                 m)
              (Engine.lookup eng c m) (Memo.lookup memo c m))
          members)
  done;
  Alcotest.(check bool)
    "cap honoured" true
    (Memo.cached_entries memo <= 2)

let test_memo_evict_and_clear () =
  let g = graph () in
  let cl = Chg.Closure.compute g in
  let memo = Memo.create cl in
  G.iter_classes g (fun c -> ignore (Memo.lookup memo c "foo"));
  let resident = Memo.cached_entries memo in
  Alcotest.(check bool) "something resident" true (resident > 0);
  Alcotest.(check int) "evict reports drops" 3 (Memo.evict memo 3);
  Alcotest.(check int) "residency shrank" (resident - 3)
    (Memo.cached_entries memo);
  (* evicting more than resident drops what is left *)
  Alcotest.(check int) "evict is capped" (resident - 3)
    (Memo.evict memo 10_000);
  Alcotest.(check int) "empty" 0 (Memo.cached_entries memo);
  let queries_before = Memo.root_queries memo "foo" in
  Memo.clear memo;
  Alcotest.(check int) "clear keeps query counts" queries_before
    (Memo.root_queries memo "foo");
  (* still correct after total eviction *)
  let eng = Engine.build cl in
  G.iter_classes g (fun c ->
      Alcotest.check (verdict_t g) "post-eviction verdict"
        (Engine.lookup eng c "foo")
        (Memo.lookup memo c "foo"))

let test_memo_root_queries () =
  let g = graph () in
  let cl = Chg.Closure.compute g in
  let memo = Memo.create cl in
  Alcotest.(check int) "starts at zero" 0 (Memo.root_queries memo "foo");
  ignore (Memo.lookup memo (G.find g "H") "foo");
  ignore (Memo.lookup memo (G.find g "G") "foo");
  (* H's fill recurses through its bases; only the two public calls
     count *)
  Alcotest.(check int) "root queries only" 2 (Memo.root_queries memo "foo");
  ignore (Memo.materialize_column memo "foo");
  Alcotest.(check int) "materialize is not a query" 2
    (Memo.root_queries memo "foo")

let test_memo_column_matches_engine () =
  let g = graph () in
  let cl = Chg.Closure.compute g in
  let eng = Engine.build cl in
  let memo = Memo.create ~max_entries:2 cl in
  let col = Memo.materialize_column memo "bar" in
  Alcotest.(check int) "column length" (G.num_classes g)
    (Packed.column_classes col);
  G.iter_classes g (fun c ->
      Alcotest.check (verdict_t g) "column entry" (Engine.lookup eng c "bar")
        (Packed.column_get col c))

let test_memo_bad_cap () =
  let cl = Chg.Closure.compute (graph ()) in
  Alcotest.check_raises "zero cap rejected"
    (Invalid_argument "Memo.create: max_entries must be >= 1")
    (fun () -> ignore (Memo.create ~max_entries:0 cl))

(* ---- Table cache: LRU, budgets, invalidation ---- *)

let col_of verdicts = Packed.pack_column verdicts

let red c = Some (Engine.Red { r_ldc = c; r_lvs = [ Lookup_core.Abstraction.Omega ] })

let test_cache_lru () =
  let t = Table_cache.create ~max_entries:2 () in
  Table_cache.promote t "a" (col_of [| red 0; None; None |]);
  Table_cache.promote t "b" (col_of [| None; red 1; None |]);
  ignore (Table_cache.find t "a") (* touch: "b" becomes LRU *);
  Table_cache.promote t "c" (col_of [| None; None; red 2 |]);
  Alcotest.(check bool) "a survives (recently used)" true
    (Table_cache.mem t "a");
  Alcotest.(check bool) "b evicted (LRU)" false (Table_cache.mem t "b");
  Alcotest.(check bool) "c resident" true (Table_cache.mem t "c");
  Alcotest.(check int) "entries at cap" 2 (Table_cache.entries t);
  let find k = List.assoc k (Table_cache.counters t) in
  Alcotest.(check int) "promotions" 3 (find "table_promotions");
  Alcotest.(check int) "evictions" 1 (find "table_evictions");
  Alcotest.(check int) "hits" 1 (find "table_hits")

let test_cache_byte_budget () =
  (* a budget smaller than one column: the newly promoted column always
     survives its own promotion, everything else goes *)
  let t = Table_cache.create ~max_bytes:64 () in
  Table_cache.promote t "a" (col_of [| red 0; red 1; None |]);
  Table_cache.promote t "b" (col_of [| red 0; red 1; None |]);
  Alcotest.(check int) "only the newest column resident" 1
    (Table_cache.entries t);
  Alcotest.(check bool) "and it is the newest" true (Table_cache.mem t "b");
  Alcotest.(check bool) "byte estimate is positive" true
    (Table_cache.bytes t > 0)

let test_cache_invalidate_and_update () =
  let t = Table_cache.create () in
  Table_cache.promote t "a" (col_of [| red 0 |]);
  Table_cache.promote t "b" (col_of [| red 0 |]);
  Alcotest.(check bool) "invalidate resident" true
    (Table_cache.invalidate t "a");
  Alcotest.(check bool) "invalidate absent" false
    (Table_cache.invalidate t "a");
  Alcotest.(check (option bool)) "a gone" None
    (Option.map (fun _ -> true) (Table_cache.find t "a"));
  (* the add_class path: extend every resident column *)
  Table_cache.update_columns t (fun _ col ->
      Some (Packed.column_append col (red 1)));
  (match Table_cache.find t "b" with
  | Some col ->
    Alcotest.(check int) "extended" 2 (Packed.column_classes col);
    Alcotest.check (verdict_t (graph ())) "new slot" (red 1)
      (Packed.column_get col 1)
  | None -> Alcotest.fail "column b disappeared");
  (* update returning None drops the column *)
  Table_cache.update_columns t (fun _ _ -> None);
  Alcotest.(check int) "all dropped" 0 (Table_cache.entries t)

(* ---- Sessions ---- *)

let session_config =
  { Session.default_config with promote_threshold = 2 }

let test_session_serves_and_promotes () =
  let g = graph () in
  let s = Session.create ~config:session_config ~name:"t" g in
  let eng = Engine.build (Chg.Closure.compute g) in
  let expect_served cls m layer =
    match Session.lookup s cls m with
    | Error c -> Alcotest.failf "unknown class %s" c
    | Ok (v, served) ->
      Alcotest.check (verdict_t g)
        (Printf.sprintf "%s::%s agrees with engine" cls m)
        (Engine.lookup eng (G.find g cls) m)
        v;
      Alcotest.(check string)
        (Printf.sprintf "%s::%s served via" cls m)
        layer
        (Session.served_string served)
  in
  expect_served "H" "foo" "memo" (* query 1 of foo *);
  expect_served "G" "foo" "memo" (* query 2: crosses threshold, promotes *);
  expect_served "H" "foo" "table";
  expect_served "A" "foo" "table";
  expect_served "H" "bar" "memo";
  Alcotest.(check bool) "foo column resident" true
    (Table_cache.mem (Session.cache s) "foo");
  let c = Session.counters s in
  Alcotest.(check int) "lookup counter" 5 (List.assoc "lookups" c)

let test_session_unknown_class () =
  let s = Session.create ~name:"t" (graph ()) in
  match Session.lookup s "Nope" "foo" with
  | Error c -> Alcotest.(check string) "echoes the class" "Nope" c
  | Ok _ -> Alcotest.fail "lookup of unknown class succeeded"

(* the oracle for mutations: rebuild the mutated hierarchy from scratch
   and run the eager engine on it *)
let engine_of_session s =
  Engine.build (Chg.Closure.compute (Session.graph s))

let check_all_lookups s =
  let g = Session.graph s in
  let eng = engine_of_session s in
  G.iter_classes g (fun c ->
      List.iter
        (fun m ->
          match Session.lookup s (G.name g c) m with
          | Error cls -> Alcotest.failf "lost class %s" cls
          | Ok (v, _) ->
            Alcotest.check (verdict_t g)
              (Printf.sprintf "%s::%s vs fresh engine" (G.name g c) m)
              (Engine.lookup eng c m) v)
        (G.member_names g))

let test_session_add_class_extends_columns () =
  let g = graph () in
  let s = Session.create ~config:session_config ~name:"t" g in
  (* warm: promote foo's column *)
  ignore (Session.lookup s "H" "foo");
  ignore (Session.lookup s "G" "foo");
  Alcotest.(check bool) "foo compiled" true
    (Table_cache.mem (Session.cache s) "foo");
  let id =
    Session.add_class s ~cls:"Z"
      ~bases:[ ("H", G.Non_virtual, G.Public); ("F", G.Virtual, G.Public) ]
      ~members:[ G.member "baz" ]
  in
  Alcotest.(check int) "dense id appended" (G.num_classes g) id;
  Alcotest.(check int) "epoch bumped" 1 (Session.epoch s);
  (* the warm column survived the mutation and covers the new class *)
  Alcotest.(check bool) "foo column still resident" true
    (Table_cache.mem (Session.cache s) "foo");
  (match Session.lookup s "Z" "foo" with
  | Ok (_, served) ->
    Alcotest.(check string) "new class served from the extended column"
      "table"
      (Session.served_string served)
  | Error c -> Alcotest.failf "lost class %s" c);
  check_all_lookups s

let test_session_add_member_invalidates () =
  let g = graph () in
  let s = Session.create ~config:session_config ~name:"t" g in
  ignore (Session.lookup s "H" "foo");
  ignore (Session.lookup s "G" "foo");
  let rows, invalidated = Session.add_member s ~cls:"B" (G.member "foo") in
  Alcotest.(check bool) "compiled column was invalidated" true invalidated;
  Alcotest.(check bool) "some rows recomputed" true (rows > 0);
  Alcotest.(check bool) "column no longer resident" false
    (Table_cache.mem (Session.cache s) "foo");
  Alcotest.(check int) "epoch bumped" 1 (Session.epoch s);
  check_all_lookups s;
  (* an unrelated member's addition leaves nothing to invalidate *)
  let _, invalidated2 = Session.add_member s ~cls:"B" (G.member "qux") in
  Alcotest.(check bool) "nothing resident to invalidate" false invalidated2;
  check_all_lookups s

(* A mutation builds only the closure rows it changes: none for an
   added member (the first mutation included), exactly one for an added
   class.  Counts, not times, so a return to recomputing the
   whole closure per mutation fails on any host. *)
let test_session_mutation_closure_rows () =
  let g =
    (Hiergen.Families.random_dag ~n:300 ~max_bases:3 ~virtual_prob:0.2
       ~declare_prob:0.2 ~members:[ "m"; "n"; "p" ] ~seed:5)
      .Hiergen.Families.graph
  in
  let s = Session.create ~name:"rows" g in
  let rows_of f =
    let before = Lookup_core.Metrics.closure_rows_computed () in
    ignore (f ());
    Lookup_core.Metrics.closure_rows_computed () - before
  in
  Alcotest.(check int) "first add_member: 0 closure rows" 0
    (rows_of (fun () -> Session.add_member s ~cls:"K7" (G.member "q")));
  Alcotest.(check int) "add_member: 0 closure rows" 0
    (rows_of (fun () -> Session.add_member s ~cls:"K150" (G.member "m2")));
  Alcotest.(check int) "add_class: 1 closure row" 1
    (rows_of (fun () ->
         Session.add_class s ~cls:"Z"
           ~bases:[ ("K299", G.Virtual, G.Public); ("K3", G.Non_virtual, G.Public) ]
           ~members:[ G.member "m" ]));
  Alcotest.(check int) "add_member after add_class: 0 closure rows" 0
    (rows_of (fun () -> Session.add_member s ~cls:"Z" (G.member "n2")));
  Alcotest.(check int) "301 classes" 301 (G.num_classes (Session.graph s));
  Alcotest.(check bool) "the session's closure covers the new class" true
    (Chg.Closure.is_virtual_base (Session.closure s) 299 300)

(* What a session keeps resident, in words ([Obj.reachable_words]: a
   count, not a time, so it fails the same on every host).  A verdict is
   stored once, packed: after every column is promoted, the session —
   graph, closure, compiled columns, memo and all — costs at most
   [words_per_entry] words per (class, member).  The first mutation
   computes no verdict table: on a session restored from its columns
   (the recovery path, whose memo is empty) the first [add_member] grows
   the session by at most [words_per_class] words per class.  Measured
   once on this hierarchy (x86-64, OCaml 5.1): 10.6 words per entry
   (the boxed memo beside the columns cost 31.4) and a 33-word growth
   (materializing a resident incremental table cost 241 words per
   class). *)
let words_per_entry = 12
let words_per_class = 2

let test_session_memory () =
  let members = List.init 16 (Printf.sprintf "m%d") in
  let n = 600 in
  let g =
    (Hiergen.Families.random_dag ~n ~max_bases:3 ~virtual_prob:0.2
       ~declare_prob:0.25 ~members ~seed:11)
      .Hiergen.Families.graph
  in
  let words x = Obj.reachable_words (Obj.repr x) in
  let s = Session.create ~name:"mem" g in
  List.iter
    (fun m ->
      for _ = 1 to 3 do
        ignore (Session.lookup s (G.name g (n - 1)) m)
      done)
    members;
  Alcotest.(check int) "every column promoted" (List.length members)
    (List.length (Session.compiled_columns s));
  let entries = n * List.length members in
  let promoted = words s in
  if promoted > words_per_entry * entries then
    Alcotest.failf "promoted session: %d words for %d entries (bound %d an entry)"
      promoted entries words_per_entry;
  let r =
    Session.restore ~name:"mem" ~epoch:0 ~columns:(Session.compiled_columns s) g
  in
  let before = words r in
  ignore (Session.add_member r ~cls:(G.name g (n / 2)) (G.member "fresh"));
  let growth = words r - before in
  if growth > words_per_class * n then
    Alcotest.failf "first add_member grew the session by %d words (bound %d)"
      growth (words_per_class * n)

(* ---- Protocol codec ---- *)

let parse line =
  match Protocol.parse_request line with
  | Ok rq -> rq
  | Error (_, code, msg) ->
    Alcotest.failf "parse failed: %s %s" (Protocol.code_string code) msg

let test_protocol_parse_ok () =
  let rq = parse {|{"id":7,"op":"lookup","session":"s","class":"A","member":"m"}|} in
  Alcotest.(check bool) "id echo" true (rq.Protocol.rq_id = J.Int 7);
  Alcotest.(check (option string)) "session" (Some "s")
    rq.Protocol.rq_session;
  (match rq.Protocol.rq_op with
  | Protocol.Lookup
      { lk_query = { q_class = "A"; q_member = "m" }; lk_semantics = Mro.Cpp }
    -> ()
  | _ -> Alcotest.fail "wrong op");
  (match (parse {|{"op":"batch_lookup","session":"s","queries":[{"class":"A","member":"m"},{"class":"B","member":"n"}]}|}).Protocol.rq_op with
  | Protocol.Batch_lookup { bl_queries = [ a; b ]; bl_semantics = Mro.Cpp } ->
    Alcotest.(check string) "q1" "A" a.Protocol.q_class;
    Alcotest.(check string) "q2 member" "n" b.Protocol.q_member
  | _ -> Alcotest.fail "wrong batch op");
  (match (parse {|{"op":"mutate","session":"s","add_member":{"class":"C","member":{"name":"m","static":true}}}|}).Protocol.rq_op with
  | Protocol.Mutate (Protocol.Add_member { mm_class = "C"; mm_member }) ->
    Alcotest.(check bool) "static parsed" true mm_member.G.m_static
  | _ -> Alcotest.fail "wrong mutate op");
  (* versioned request accepted *)
  match (parse {|{"rpc":"cxxlookup-rpc/1","op":"stats"}|}).Protocol.rq_op with
  | Protocol.Stats -> ()
  | _ -> Alcotest.fail "wrong stats op"

let expect_error line code =
  match Protocol.parse_request line with
  | Ok _ -> Alcotest.failf "accepted %s" line
  | Error (_, c, _) ->
    Alcotest.(check string)
      (Printf.sprintf "error code for %s" line)
      (Protocol.code_string code) (Protocol.code_string c)

let test_protocol_parse_errors () =
  expect_error "nonsense" Protocol.Parse_error;
  expect_error {|[1,2]|} Protocol.Bad_request;
  expect_error {|{"id":1}|} Protocol.Bad_request;
  expect_error {|{"op":"frobnicate"}|} Protocol.Unknown_op;
  expect_error {|{"rpc":"cxxlookup-rpc/2","op":"stats"}|}
    Protocol.Bad_version;
  expect_error {|{"op":"lookup","class":"A"}|} Protocol.Bad_request;
  (* the id is still recovered for the error response *)
  match Protocol.parse_request {|{"id":"q1","op":"frobnicate"}|} with
  | Error (id, _, _) ->
    Alcotest.(check bool) "id recovered" true (id = J.String "q1")
  | Ok _ -> Alcotest.fail "accepted unknown op"

(* ---- Server dispatch ---- *)

let field r name =
  match J.member name r with
  | Ok v -> v
  | Error e -> Alcotest.failf "response lacks %s: %s" name e

let is_ok r = field r "ok" = J.Bool true

let error_code r =
  match J.member "code" (field r "error") with
  | Ok (J.String s) -> s
  | _ -> Alcotest.fail "unstructured error"

let open_request ?(session = "s") g =
  J.Obj
    [ ("id", J.Int 0); ("op", J.String "open");
      ("session", J.String session); ("chg", Chg.Serialize.to_json g) ]

let test_server_open_and_errors () =
  let srv = Server.create () in
  let r = Server.handle_json srv (open_request (graph ())) in
  Alcotest.(check bool) "open ok" true (is_ok r);
  Alcotest.(check bool) "class count" true (field r "classes" = J.Int 8);
  let dup = Server.handle_json srv (open_request (graph ())) in
  Alcotest.(check string) "duplicate session" "duplicate_session"
    (error_code dup);
  let unknown =
    Server.handle_line srv
      {|{"id":1,"op":"lookup","session":"nope","class":"A","member":"foo"}|}
  in
  Alcotest.(check string) "unknown session" "unknown_session"
    (error_code unknown);
  let bad_class =
    Server.handle_line srv
      {|{"id":2,"op":"lookup","session":"s","class":"Nope","member":"foo"}|}
  in
  Alcotest.(check string) "unknown class" "unknown_class"
    (error_code bad_class);
  let closed =
    Server.handle_line srv {|{"id":3,"op":"close","session":"s"}|}
  in
  Alcotest.(check bool) "close ok" true (is_ok closed);
  Alcotest.(check string) "closed session gone" "unknown_session"
    (error_code
       (Server.handle_line srv {|{"id":4,"op":"close","session":"s"}|}));
  (* duplicate open, unknown session, unknown class, close-after-close *)
  let errors = List.assoc "errors" (Server.counters srv) in
  Alcotest.(check int) "error counter" 4 errors

let test_server_open_source_rejects_bad () =
  let srv = Server.create () in
  let r =
    Server.handle_line srv
      {|{"id":0,"op":"open","source":"struct A : NotDeclared {};"}|}
  in
  Alcotest.(check string) "bad hierarchy" "bad_hierarchy" (error_code r)

(* every malformed line and misdirected verb must come back as a
   structured error response — the server never throws, never dies *)
let test_server_protocol_error_paths () =
  let srv = Server.create () in
  let code line = error_code (Server.handle_line srv line) in
  Alcotest.(check string) "malformed json" "parse_error" (code "{not json");
  Alcotest.(check string) "truncated json" "parse_error"
    (code {|{"op":"stats"|});
  Alcotest.(check string) "non-object request" "bad_request"
    (code {|[1,2,3]|});
  Alcotest.(check string) "unknown verb" "unknown_op"
    (code {|{"op":"defragment"}|});
  Alcotest.(check string) "lookup without session" "bad_request"
    (code {|{"op":"lookup","class":"A","member":"m"}|});
  Alcotest.(check string) "lookup against nonexistent session"
    "unknown_session"
    (code {|{"op":"lookup","session":"ghost","class":"A","member":"m"}|});
  Alcotest.(check string) "mutate with both kinds" "bad_request"
    (code
       {|{"op":"mutate","session":"ghost","add_class":{"name":"X"},"add_member":{"class":"X","member":{"name":"m"}}}|});
  ignore (Server.handle_json srv (open_request (graph ())));
  (* durability verbs without a store: structured store_error *)
  Alcotest.(check string) "snapshot without store" "store_error"
    (code {|{"op":"snapshot","session":"s"}|});
  Alcotest.(check string) "restore without store" "store_error"
    (code {|{"op":"restore","session":"elsewhere"}|});
  (* a closed session is gone: lookups answer unknown_session *)
  Alcotest.(check bool) "close ok" true
    (is_ok (Server.handle_line srv {|{"op":"close","session":"s"}|}));
  Alcotest.(check string) "lookup against closed session" "unknown_session"
    (code {|{"op":"lookup","session":"s","class":"A","member":"foo"}|});
  (* the server survived all of it: a fresh open still works *)
  Alcotest.(check bool) "still serving" true
    (is_ok (Server.handle_json srv (open_request (graph ()))))

(* ---- the durable server: store-backed open/mutate/restore ---------- *)

let with_temp_store f =
  let dir = Filename.temp_file "cxxsrv" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  let rec rm_rf path =
    if Sys.is_directory path then begin
      Array.iter (fun x -> rm_rf (Filename.concat path x)) (Sys.readdir path);
      Unix.rmdir path
    end
    else Sys.remove path
  in
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

let test_server_store_restart () =
  with_temp_store (fun dir ->
      let store = Store.open_dir dir in
      let srv = Server.create ~store () in
      Alcotest.(check bool) "open ok" true
        (is_ok (Server.handle_json srv (open_request ~session:"d" (graph ()))));
      Alcotest.(check bool) "mutate ok" true
        (is_ok
           (Server.handle_line srv
              {|{"op":"mutate","session":"d","add_member":{"class":"B","member":{"name":"zap"}}}|}));
      (* restoring a name that is open is a duplicate, not a reopen *)
      Alcotest.(check string) "restore of open session" "duplicate_session"
        (error_code
           (Server.handle_line srv {|{"op":"restore","session":"d"}|}));
      (* stats carry the protocol version and the session epoch *)
      let st = Server.handle_line srv {|{"op":"stats","session":"d"}|} in
      Alcotest.(check bool) "stats protocol" true
        (field st "protocol" = J.String Protocol.version);
      Alcotest.(check bool) "stats epoch" true (field st "epoch" = J.Int 1);
      Store.close store;
      (* restart: a new server over the same directory recovers it all *)
      let store2 = Store.open_dir dir in
      let srv2 = Server.create ~store:store2 () in
      (match Server.recover_sessions srv2 with
      | [ Server.Recovered { r_session = "d"; r_epoch = 1; r_replayed = 1;
                             r_torn = false } ] -> ()
      | other ->
        Alcotest.failf "unexpected recovery: %d results"
          (List.length other));
      let r =
        Server.handle_line srv2
          {|{"op":"lookup","session":"d","class":"H","member":"zap"}|}
      in
      Alcotest.(check bool) "recovered verdict" true
        (field r "verdict" = J.String "red"
        && field r "resolves_to" = J.String "B");
      (* restore of a never-stored name: structured store_error *)
      Alcotest.(check string) "restore unknown name" "store_error"
        (error_code
           (Server.handle_line srv2 {|{"op":"restore","session":"nope"}|}));
      (* close, then reopen from the store via the restore verb *)
      Alcotest.(check bool) "close ok" true
        (is_ok (Server.handle_line srv2 {|{"op":"close","session":"d"}|}));
      let back = Server.handle_line srv2 {|{"op":"restore","session":"d"}|} in
      Alcotest.(check bool) "restore ok" true (is_ok back);
      Alcotest.(check bool) "restore epoch" true
        (field back "epoch" = J.Int 1);
      let r2 =
        Server.handle_line srv2
          {|{"op":"lookup","session":"d","class":"H","member":"zap"}|}
      in
      Alcotest.(check bool) "verdict after restore verb" true
        (field r2 "verdict" = J.String "red");
      Store.close store2)

(* ---- observability: metrics verb, stats fields, request log, flight
   recorder ---- *)

let test_server_metrics_verb () =
  let srv = Server.create () in
  ignore (Server.handle_json srv (open_request (graph ())));
  ignore
    (Server.handle_line srv
       {|{"op":"lookup","session":"s","class":"A","member":"foo"}|});
  let r = Server.handle_line srv {|{"op":"metrics"}|} in
  Alcotest.(check bool) "metrics ok" true (is_ok r);
  Alcotest.(check bool) "content type announced" true
    (field r "format" = J.String "text/plain; version=0.0.4");
  let body =
    match field r "body" with
    | J.String s -> s
    | _ -> Alcotest.fail "metrics body is not a string"
  in
  (match Telemetry.Expocheck.check body with
  | Ok n -> Alcotest.(check bool) "exposition has samples" true (n > 0)
  | Error e -> Alcotest.failf "metrics body rejected: %s" e);
  let has needle =
    let nl = String.length needle and bl = String.length body in
    let rec scan i =
      i + nl <= bl && (String.sub body i nl = needle || scan (i + 1))
    in
    scan 0
  in
  Alcotest.(check bool) "request counter exposed" true
    (has "cxxlookup_server_requests_total");
  Alcotest.(check bool) "per-verb duration histogram exposed" true
    (has "cxxlookup_server_request_duration_ns_bucket");
  Alcotest.(check bool) "session series labelled" true
    (has "session=\"s\"");
  (* two scrapes of a quiet server must be monotone (the counter moved
     only by the metrics request in between) *)
  let r2 = Server.handle_line srv {|{"op":"metrics"}|} in
  let body2 =
    match field r2 "body" with J.String s -> s | _ -> assert false
  in
  match Telemetry.Expocheck.check_monotone ~prev:body ~next:body2 with
  | Ok () -> ()
  | Error e -> Alcotest.failf "scrapes not monotone: %s" e

let test_server_stats_observability_fields () =
  let srv = Server.create () in
  ignore (Server.handle_json srv (open_request (graph ())));
  ignore
    (Server.handle_line srv
       {|{"op":"lookup","session":"s","class":"A","member":"foo"}|});
  ignore (Server.handle_line srv {|{"op":"defragment"}|}) (* unknown_op *);
  let r = Server.handle_line srv {|{"op":"stats"}|} in
  let service = field r "service" in
  (match J.member "uptime_ns" service with
  | Ok (J.Int ns) ->
    Alcotest.(check bool) "uptime positive" true (ns >= 0)
  | _ -> Alcotest.fail "stats lacks service.uptime_ns");
  (match J.member "verbs" service with
  | Ok verbs ->
    Alcotest.(check bool) "per-verb counts" true
      (J.member "lookup" verbs = Ok (J.Int 1)
      && J.member "open" verbs = Ok (J.Int 1))
  | Error e -> Alcotest.failf "stats lacks service.verbs: %s" e);
  match J.member "error_codes" service with
  | Ok codes ->
    Alcotest.(check bool) "per-code counts" true
      (J.member "unknown_op" codes = Ok (J.Int 1))
  | Error e -> Alcotest.failf "stats lacks service.error_codes: %s" e

let test_server_request_log_and_flight () =
  let path = Filename.temp_file "cxxlog" ".jsonl" in
  let log = Service.Request_log.open_path path in
  let srv = Server.create ~request_log:log ~slow_ms:0 () in
  ignore (Server.handle_json srv (open_request (graph ())));
  ignore
    (Server.handle_line srv
       {|{"id":"q1","op":"lookup","session":"s","class":"A","member":"foo"}|});
  ignore (Server.handle_line srv {|{"op":"nonsense"}|});
  Service.Request_log.close log;
  let ic = open_in path in
  let lines = ref [] in
  (try
     while true do
       lines := input_line ic :: !lines
     done
   with End_of_file -> ());
  close_in ic;
  Sys.remove path;
  let lines = List.rev !lines in
  Alcotest.(check int) "one log line per request" 3 (List.length lines);
  let parsed =
    List.map
      (fun l ->
        match J.of_string l with
        | Ok j -> j
        | Error e -> Alcotest.failf "log line not JSON: %s (%s)" l e)
      lines
  in
  let second = List.nth parsed 1 in
  Alcotest.(check bool) "verb recorded" true
    (J.member "verb" second = Ok (J.String "lookup"));
  Alcotest.(check bool) "request id carried" true
    (J.member "id" second = Ok (J.String "q1"));
  Alcotest.(check bool) "outcome ok" true
    (J.member "outcome" second = Ok (J.String "ok"));
  Alcotest.(check bool) "slow_ms 0 marks everything slow" true
    (J.member "slow" second = Ok (J.Bool true));
  Alcotest.(check bool) "response bytes measured when log on" true
    (match J.member "bytes" second with
    | Ok (J.Int b) -> b > 0
    | _ -> false);
  let third = List.nth parsed 2 in
  Alcotest.(check bool) "error outcome recorded" true
    (J.member "outcome" third = Ok (J.String "unknown_op"));
  (* the flight recorder holds the same requests, oldest first *)
  let dump = Filename.temp_file "cxxflight" ".txt" in
  let oc = open_out dump in
  Server.dump_flight srv oc;
  close_out oc;
  let ic = open_in dump in
  let first_line = input_line ic in
  close_in ic;
  Sys.remove dump;
  Alcotest.(check string) "flight header counts requests"
    "--- cxxlookup flight recorder: last 3 of 3 requests ---" first_line

(* ---- QCheck: the wire protocol against the spec oracle ---- *)

let qc_members = [ "m"; "n"; "p" ]

let instance_gen =
  QCheck.Gen.(
    map
      (fun (n, max_bases, vp, dp, seed) ->
        Hiergen.Families.random_dag ~n ~max_bases
          ~virtual_prob:(float_of_int vp /. 10.)
          ~declare_prob:(float_of_int dp /. 10.)
          ~members:qc_members ~seed)
      (tup5 (int_range 1 14) (int_range 1 3) (int_range 0 10)
         (int_range 1 6) (int_range 0 10000)))

let instance_arb =
  QCheck.make instance_gen ~print:(fun i ->
      i.Hiergen.Families.description ^ "\n"
      ^ Format.asprintf "%a" G.pp i.Hiergen.Families.graph)

let result_matches_spec g (q : W.query) r =
  let verdict =
    match J.member "verdict" r with
    | Ok (J.String s) -> s
    | _ -> "?"
  in
  match Spec.lookup_static g q.W.q_class q.W.q_member with
  | Spec.Resolved p ->
    verdict = "red"
    && J.member "resolves_to" r = Ok (J.String (G.name g (Path.ldc p)))
  | Spec.Ambiguous _ -> verdict = "blue"
  | Spec.Undeclared -> verdict = "none"

let prop_batch_matches_spec =
  QCheck.Test.make ~count:120
    ~name:"batch_lookup over exhaustive workload = spec oracle" instance_arb
    (fun { Hiergen.Families.graph = g; _ } ->
      let srv = Server.create () in
      let opened = Server.handle_json srv (open_request g) in
      opened <> J.Null
      && is_ok opened
      &&
      let ws = W.exhaustive g in
      let resp =
        Server.handle_line srv (W.to_batch_request ~session:"s" g ws)
      in
      is_ok resp
      &&
      match J.member "results" resp with
      | Ok (J.List rs) when List.length rs = List.length ws ->
        List.for_all2 (result_matches_spec g) ws rs
      | _ -> false)

let prop_serve_sessions_promote =
  (* replaying a workload twice per session: answers stay equal to the
     first pass even as serving shifts from memo to compiled columns *)
  QCheck.Test.make ~count:60 ~name:"promotion never changes answers"
    instance_arb (fun { Hiergen.Families.graph = g; _ } ->
      let config = { Session.default_config with promote_threshold = 1 } in
      let s = Session.create ~config ~name:"q" g in
      let ws = W.exhaustive g in
      let run () =
        List.map
          (fun (q : W.query) ->
            match Session.lookup s (G.name g q.W.q_class) q.W.q_member with
            | Ok (v, _) -> v
            | Error _ -> assert false)
          ws
      in
      run () = run ())

let suite =
  [ Alcotest.test_case "memo cap keeps verdicts intact" `Quick
      test_memo_cap_and_correctness;
    Alcotest.test_case "memo evict/clear" `Quick test_memo_evict_and_clear;
    Alcotest.test_case "memo root-query counting" `Quick
      test_memo_root_queries;
    Alcotest.test_case "memo materialized column" `Quick
      test_memo_column_matches_engine;
    Alcotest.test_case "memo rejects bad cap" `Quick test_memo_bad_cap;
    Alcotest.test_case "cache LRU eviction" `Quick test_cache_lru;
    Alcotest.test_case "cache byte budget" `Quick test_cache_byte_budget;
    Alcotest.test_case "cache invalidate/update" `Quick
      test_cache_invalidate_and_update;
    Alcotest.test_case "session serves and promotes" `Quick
      test_session_serves_and_promotes;
    Alcotest.test_case "session unknown class" `Quick
      test_session_unknown_class;
    Alcotest.test_case "add_class extends compiled columns" `Quick
      test_session_add_class_extends_columns;
    Alcotest.test_case "add_member invalidates its column" `Quick
      test_session_add_member_invalidates;
    Alcotest.test_case "mutations build only changed closure rows" `Quick
      test_session_mutation_closure_rows;
    Alcotest.test_case "one packed verdict store: words per entry" `Quick
      test_session_memory;
    Alcotest.test_case "protocol parses every verb" `Quick
      test_protocol_parse_ok;
    Alcotest.test_case "protocol error codes" `Quick
      test_protocol_parse_errors;
    Alcotest.test_case "server open/close and errors" `Quick
      test_server_open_and_errors;
    Alcotest.test_case "server rejects bad source" `Quick
      test_server_open_source_rejects_bad;
    Alcotest.test_case "server protocol error paths" `Quick
      test_server_protocol_error_paths;
    Alcotest.test_case "server store restart" `Quick
      test_server_store_restart;
    Alcotest.test_case "metrics verb renders the registry" `Quick
      test_server_metrics_verb;
    Alcotest.test_case "stats observability fields" `Quick
      test_server_stats_observability_fields;
    Alcotest.test_case "request log and flight recorder" `Quick
      test_server_request_log_and_flight ]
  @ List.map QCheck_alcotest.to_alcotest
      [ prop_batch_matches_spec; prop_serve_sessions_promote ]
