module G = Chg.Graph
module Engine = Lookup_core.Engine
module Memo = Lookup_core.Memo
module Packed = Lookup_core.Packed

type config = {
  promote_threshold : int;
  table_max_entries : int;
  table_max_bytes : int option;
  memo_max_entries : int option;
  jobs : int;
}

let default_config =
  { promote_threshold = 3;
    table_max_entries = 64;
    table_max_bytes = None;
    memo_max_entries = None;
    jobs = 1 }

type served = Compiled | Memoised

let served_string = function Compiled -> "table" | Memoised -> "memo"

(* The per-epoch symbol snapshot the binary hot path reads lock-free:
   class names frozen in graph-id order, plus a member-id-indexed cache
   of compiled columns (filled lazily from the table cache; entries are
   immutable columns, so racy fills across reader domains are benign —
   a stale [None] just re-probes).  Member names live on the session
   itself: ids are assigned append-only across mutations, never
   renumbered, so a client's intern table stays valid under deltas. *)
type symtab = {
  st_epoch : int;
  st_classes : string array;
  st_cols : Packed.column option array;
}

type t = {
  name : string;
  config : config;
  cache : Table_cache.t;
  mutable closure : Chg.Closure.t;
      (* over the published graph snapshot: one append-only closure,
         grown in place by every mutation *)
  mutable memo : Memo.t;  (* read-through engine over the snapshot *)
  mutable epoch : int;  (* mutations applied so far *)
  mutable mro : (int * Mro.variant * Mro.t) list;
      (* linearization tables for the opt-in MRO semantics, one per
         variant, keyed by the epoch they were computed at; mutations
         invalidate by epoch mismatch (stale entries are dropped on the
         next fill) *)
  member_syms : (string, int) Hashtbl.t;
      (* member name -> dense id; append-only, written only under the
         mutation path's exclusivity *)
  mutable member_names_arr : string array;  (* id -> name, doubling *)
  mutable member_count : int;
  symtab : symtab Atomic.t;
      (* published per-epoch snapshot; rebuilt under [lock] on epoch
         mismatch, read lock-free everywhere else *)
  lookups : Telemetry.Counter.t;
  resolved : Telemetry.Counter.t;
  ambiguous : Telemetry.Counter.t;
  not_found : Telemetry.Counter.t;
  mutations : Telemetry.Counter.t;
  lock : Mutex.t;
      (* guards the memo path and cache promotion under the networked
         server, where read verbs run on several worker domains at
         once.  The compiled-table hit path stays lock-free
         ([Table_cache.find_fast]); only memo fills — which mutate the
         memo's tables — and promotions serialize here.  Uncontended
         (and byte-identical in accounting) on the stdin path. *)
}

let fresh_memo t cl = Memo.create ?max_entries:t.config.memo_max_entries cl

(* Publish a mutated hierarchy: the new closure (whose graph is the new
   snapshot) and an empty memo over it. *)
let publish t cl =
  t.closure <- cl;
  t.memo <- fresh_memo t cl

let intern t name =
  match Hashtbl.find_opt t.member_syms name with
  | Some id -> id
  | None ->
    let id = t.member_count in
    if id >= Array.length t.member_names_arr then begin
      let fresh = Array.make (max 16 (2 * (id + 1))) "" in
      Array.blit t.member_names_arr 0 fresh 0 id;
      t.member_names_arr <- fresh
    end;
    t.member_names_arr.(id) <- name;
    Hashtbl.add t.member_syms name id;
    t.member_count <- id + 1;
    id

(* seed the intern table in first-declaration order — the same order
   {!Lookup_core.Packed.build} and the eager engine use *)
let intern_graph t g =
  G.iter_classes g (fun c ->
      List.iter
        (fun (m : G.member) -> ignore (intern t m.G.m_name))
        (G.members g c))

let make ?(config = default_config) ~name ~epoch g =
  let closure = Chg.Closure.compute g in
  let t =
    { name;
      config;
      cache =
        Table_cache.create ~max_entries:config.table_max_entries
          ?max_bytes:config.table_max_bytes ();
      closure;
      memo = Memo.create ?max_entries:config.memo_max_entries closure;
      epoch;
      mro = [];
      member_syms = Hashtbl.create 64;
      member_names_arr = [||];
      member_count = 0;
      symtab =
        Atomic.make { st_epoch = -1; st_classes = [||]; st_cols = [||] };
      lookups = Telemetry.Counter.make "lookups";
      resolved = Telemetry.Counter.make "resolved";
      ambiguous = Telemetry.Counter.make "ambiguous";
      not_found = Telemetry.Counter.make "not_found";
      mutations = Telemetry.Counter.make "mutations";
      lock = Mutex.create () }
  in
  intern_graph t g;
  t

let create ?config ~name g = make ?config ~name ~epoch:0 g

let restore ?config ~name ~epoch ~columns g =
  let t = make ?config ~name ~epoch g in
  let n = G.num_classes g in
  List.iter
    (fun (m, col) ->
      if Packed.column_classes col = n then Table_cache.promote t.cache m col)
    columns;
  t

let name t = t.name
let graph t = Chg.Closure.graph t.closure
let closure t = t.closure
let epoch t = t.epoch
let cache t = t.cache
let compiled_columns t = Table_cache.columns t.cache

let count_verdict t = function
  | Some (Engine.Red _) -> Telemetry.Counter.incr t.resolved
  | Some (Engine.Blue _) -> Telemetry.Counter.incr t.ambiguous
  | None -> Telemetry.Counter.incr t.not_found

(* The serving path: compiled table first (one array read), then the
   memo engine; a memo-served member whose root-query count has crossed
   the threshold is promoted — its full column materialized from the
   memo's cache — so later queries take the compiled path. *)
let lookup t cls member =
  match G.find_opt (graph t) cls with
  | None -> Error cls
  | Some c ->
    Telemetry.Counter.incr t.lookups;
    (match Table_cache.find_fast t.cache member with
    | Some col ->
      (* lock-free: an immutable packed column read on any domain *)
      let v = Packed.column_get col c in
      count_verdict t v;
      Ok (v, Compiled)
    | None ->
      Mutex.protect t.lock @@ fun () ->
      (* re-probe under the lock: another domain may have promoted this
         member between our fast-path miss and acquiring the lock (the
         locked find also attributes the miss to the counters) *)
      (match Table_cache.find t.cache member with
      | Some col ->
        let v = Packed.column_get col c in
        count_verdict t v;
        Ok (v, Compiled)
      | None ->
        let v = Memo.lookup t.memo c member in
        if Memo.root_queries t.memo member >= t.config.promote_threshold then
          Table_cache.promote t.cache member
            (Memo.materialize_column t.memo member);
        count_verdict t v;
        Ok (v, Memoised)))

(* ---- the interned-id path ------------------------------------------

   Classes are addressed by graph id (declaration order, append-only by
   construction); members by the session's dense intern ids.  Both are
   what the binary framing carries, so the resolved hot path below is
   int-only: bounds checks, one array read into the published symtab,
   one packed probe, no allocation. *)

let symtab t =
  let st = Atomic.get t.symtab in
  if st.st_epoch = t.epoch then st
  else
    Mutex.protect t.lock @@ fun () ->
    let st = Atomic.get t.symtab in
    if st.st_epoch = t.epoch then st
    else begin
      let n = G.num_classes (graph t) in
      let st =
        { st_epoch = t.epoch;
          st_classes =
            (* an add_member leaves the class names as they were *)
            (if Array.length st.st_classes = n then st.st_classes
             else Array.init n (fun c -> G.name (graph t) c));
          st_cols = Array.make t.member_count None }
      in
      Atomic.set t.symtab st;
      st
    end

let num_member_symbols t = t.member_count
let member_symbol_name t id = t.member_names_arr.(id)

let member_symbols_from t k =
  List.init (t.member_count - k) (fun i -> (k + i, t.member_names_arr.(k + i)))

let member_symbol t name = Hashtbl.find_opt t.member_syms name

(* (epoch, class names, member names) — the symbols verb's payload.
   Both arrays are copies: the response must not alias the growable
   member store or the published symtab. *)
let symbols t =
  let st = symtab t in
  (st.st_epoch, Array.copy st.st_classes, Array.sub t.member_names_arr 0 t.member_count)

let code_of_verdict = function
  | Some (Engine.Red { Lookup_core.Abstraction.r_ldc; _ }) -> r_ldc
  | Some (Engine.Blue _) -> -2
  | None -> -1

let count_code t code =
  if code >= 0 then Telemetry.Counter.incr t.resolved
  else if code = -2 then Telemetry.Counter.incr t.ambiguous
  else Telemetry.Counter.incr t.not_found

(* [lookup_code t ~cls ~member] — verdict as a resolve code ([-1]
   absent, [-2] ambiguous, else the declaring class id), by interned
   ids.  Counter accounting is identical to {!lookup} for the same
   query.  On the path where the member's compiled column is cached in
   the symtab, this performs zero allocation. *)
let lookup_code t ~cls ~member =
  if cls < 0 || cls >= G.num_classes (graph t) then Error `Bad_class
  else if member < 0 || member >= t.member_count then Error `Bad_member
  else begin
    let st = symtab t in
    match if member < Array.length st.st_cols then st.st_cols.(member) else None with
    | Some col ->
      Telemetry.Counter.incr t.lookups;
      (* the table cache's hit accounting must match the by-name path *)
      Table_cache.note_fast_hit t.cache;
      let code = Packed.column_resolve_code col cls in
      count_code t code;
      Ok (code, Compiled)
    | None ->
      let name = t.member_names_arr.(member) in
      (match lookup t (st.st_classes.(cls)) name with
      | Error _ -> Error `Bad_class
      | Ok (v, served) ->
        (* promote into the symtab so the next id-lookup is int-only *)
        (match Table_cache.peek t.cache name with
        | Some col
          when Packed.column_classes col = G.num_classes (graph t)
               && member < Array.length st.st_cols ->
          st.st_cols.(member) <- Some col
        | _ -> ());
        Ok (code_of_verdict v, served))
  end

(* The opt-in linearized-semantics path: one {!Mro.t} per requested
   variant, computed from the current frozen graph and cached until the
   next mutation (epoch mismatch).  Serialized by the session lock —
   the table itself is immutable once built, and the list cell swap is
   the only write. *)
let mro_table t v =
  Mutex.protect t.lock @@ fun () ->
  match
    List.find_opt (fun (e, v', _) -> e = t.epoch && v' = v) t.mro
  with
  | Some (_, _, tbl) -> tbl
  | None ->
    let tbl = Mro.compute v (graph t) in
    t.mro <-
      (t.epoch, v, tbl)
      :: List.filter (fun (e, _, _) -> e = t.epoch) t.mro;
    tbl

let mro_lookup t v cls member =
  match G.find_opt (graph t) cls with
  | None -> Error cls
  | Some c ->
    Telemetry.Counter.incr t.lookups;
    let tbl = mro_table t v in
    let verdict = Mro.lookup tbl c member in
    count_verdict t verdict;
    Ok verdict

(* Mutations grow the append-only graph and closure and repair only
   what changed: a new class appends one closure row and one graph slot;
   a new member re-targets the closure and computes no row.  The session
   then publishes the new snapshot with an empty memo; the compiled
   columns carry the warmth across mutations. *)

let add_class t ~cls ~bases ~members =
  let g = G.append_class (graph t) cls ~bases ~members in
  let cl = Chg.Closure.append t.closure g in
  let id = G.num_classes g - 1 in
  List.iter (fun (m : G.member) -> ignore (intern t m.G.m_name)) members;
  t.epoch <- t.epoch + 1;
  Telemetry.Counter.incr t.mutations;
  publish t cl;
  (* Every resident column gains exactly one entry: the new class's
     verdict, one Figure-8 step over that column's own entries at the
     new class's bases — extension, not invalidation. *)
  Table_cache.update_columns t.cache (fun m col ->
      Some
        (Packed.column_append col
           (Engine.step ~static_rule:true cl m (Packed.column_get col) id)));
  id

let add_member t ~cls member =
  let g = G.append_member (graph t) cls member in
  let cl = Chg.Closure.with_graph t.closure g in
  (* The new declaration can change the member's verdict only at [cls]
     and the classes derived from it, all of higher id (topological
     order): those are the rows a repair of its column recomputes. *)
  let c = G.find g cls in
  let rows = ref 1 in
  for j = c + 1 to G.num_classes g - 1 do
    if Chg.Closure.is_base cl c j then incr rows
  done;
  ignore (intern t member.G.m_name);
  t.epoch <- t.epoch + 1;
  Telemetry.Counter.incr t.mutations;
  publish t cl;
  (* Only the mutated member's column can have changed; drop exactly it. *)
  let invalidated = Table_cache.invalidate t.cache member.G.m_name in
  (!rows, invalidated)

let counters t =
  List.map
    (fun c -> (Telemetry.Counter.name c, Telemetry.Counter.value c))
    [ t.lookups; t.resolved; t.ambiguous; t.not_found; t.mutations ]

let stats_json t =
  let j_counters kvs =
    Chg.Json.Obj (List.map (fun (k, v) -> (k, Chg.Json.Int v)) kvs)
  in
  let hits = Table_cache.hits t.cache and misses = Table_cache.misses t.cache in
  let hit_ratio_pct =
    if hits + misses = 0 then 0 else 100 * hits / (hits + misses)
  in
  Chg.Json.Obj
    [ ("session", Chg.Json.String t.name);
      ("classes", Chg.Json.Int (G.num_classes (graph t)));
      ("edges", Chg.Json.Int (G.num_edges (graph t)));
      ("members", Chg.Json.Int (List.length (G.member_names (graph t))));
      ("epoch", Chg.Json.Int t.epoch);
      ("domains", Chg.Json.Int t.config.jobs);
      ("counters", j_counters (counters t));
      ( "table",
        Chg.Json.Obj
          (("entries", Chg.Json.Int (Table_cache.entries t.cache))
           :: ("bytes", Chg.Json.Int (Table_cache.bytes t.cache))
           :: ("boxed_bytes", Chg.Json.Int (Table_cache.boxed_bytes t.cache))
           :: ("hit_ratio_pct", Chg.Json.Int hit_ratio_pct)
           :: List.map
                (fun (k, v) -> (k, Chg.Json.Int v))
                (Table_cache.counters t.cache)
           @ [ ( "columns",
                 Chg.Json.List
                   (List.map
                      (fun (m, bytes, boxed) ->
                        Chg.Json.Obj
                          [ ("member", Chg.Json.String m);
                            ("bytes", Chg.Json.Int bytes);
                            ("boxed_bytes", Chg.Json.Int boxed) ])
                      (Table_cache.column_stats t.cache)) ) ]) );
      ( "memo",
        Chg.Json.Obj
          [ ("cached_entries", Chg.Json.Int (Memo.cached_entries t.memo)) ] )
    ]

(* Exposition: every per-session series carries a session label, so the
   registry holds all open sessions side by side. *)
let register t registry =
  let labels = [ ("session", t.name) ] in
  List.iter
    (fun c ->
      Telemetry.Registry.attach_counter registry ~labels
        ~help:
          (Printf.sprintf "Session counter %s." (Telemetry.Counter.name c))
        (Printf.sprintf "cxxlookup_session_%s_total"
           (Telemetry.Counter.name c))
        c)
    [ t.lookups; t.resolved; t.ambiguous; t.not_found; t.mutations ];
  Telemetry.Registry.gauge registry ~labels
    ~help:"Mutations applied to the session so far."
    "cxxlookup_session_epoch"
    (fun () -> t.epoch);
  Telemetry.Registry.gauge registry ~labels
    ~help:"Classes in the session's hierarchy."
    "cxxlookup_session_classes"
    (fun () -> G.num_classes (graph t));
  Telemetry.Registry.gauge registry ~labels
    ~help:"Entries in the memo engine's cache."
    "cxxlookup_session_memo_entries"
    (fun () -> Memo.cached_entries t.memo);
  Table_cache.register t.cache ~labels registry
