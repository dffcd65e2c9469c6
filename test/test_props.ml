(* Property-based tests (QCheck): the efficient algorithm is compared
   against the executable specification on random hierarchies, and the
   formalism's algebraic laws are checked on random paths. *)

module G = Chg.Graph
module Path = Subobject.Path
module Spec = Subobject.Spec
module Sgraph = Subobject.Sgraph
module Engine = Lookup_core.Engine
module Memo = Lookup_core.Memo
module Packed = Lookup_core.Packed
module Metrics = Lookup_core.Metrics

let members = [ "m"; "n"; "p" ]

(* Random hierarchies come from the seeded family generator: QCheck draws
   only the parameters, so shrinking stays meaningful and every failure
   is reproducible from its parameters. *)
let instance_gen =
  QCheck.Gen.(
    map
      (fun (n, max_bases, vp, dp, seed) ->
        Hiergen.Families.random_dag ~n ~max_bases
          ~virtual_prob:(float_of_int vp /. 10.)
          ~declare_prob:(float_of_int dp /. 10.)
          ~members ~seed)
      (tup5 (int_range 1 14) (int_range 1 3) (int_range 0 10)
         (int_range 1 6) (int_range 0 10000)))

let instance_arb =
  QCheck.make instance_gen ~print:(fun i ->
      i.Hiergen.Families.description ^ "\n"
      ^ Format.asprintf "%a" G.pp i.Hiergen.Families.graph)

let static_instance_gen =
  QCheck.Gen.(
    map
      (fun (n, vp, sp, seed) ->
        Hiergen.Families.random_static_dag ~n ~max_bases:3
          ~virtual_prob:(float_of_int vp /. 10.)
          ~declare_prob:0.4
          ~static_prob:(float_of_int sp /. 10.)
          ~members ~seed)
      (tup4 (int_range 1 12) (int_range 0 10) (int_range 0 10)
         (int_range 0 10000)))

let static_instance_arb =
  QCheck.make static_instance_gen ~print:(fun i ->
      i.Hiergen.Families.description ^ "\n"
      ^ Format.asprintf "%a" G.pp i.Hiergen.Families.graph)

let count = 300

let prop_engine_matches_spec =
  QCheck.Test.make ~count ~name:"engine = spec oracle (no statics)"
    instance_arb (fun { Hiergen.Families.graph = g; _ } ->
      let eng = Engine.build ~static_rule:false (Chg.Closure.compute g) in
      List.for_all
        (fun c ->
          List.for_all
            (fun m ->
              Engine.agrees_with_spec eng ~spec_verdict:(Spec.lookup g c m) c
                m)
            members)
        (G.classes g))

let prop_engine_matches_spec_static =
  QCheck.Test.make ~count ~name:"engine = spec oracle (static members)"
    static_instance_arb (fun { Hiergen.Families.graph = g; _ } ->
      let eng = Engine.build ~static_rule:true (Chg.Closure.compute g) in
      List.for_all
        (fun c ->
          List.for_all
            (fun m ->
              Engine.agrees_with_spec eng
                ~spec_verdict:(Spec.lookup_static g c m) c m)
            members)
        (G.classes g))

let prop_memo_matches_eager =
  QCheck.Test.make ~count ~name:"lazy memo = eager table" instance_arb
    (fun { Hiergen.Families.graph = g; _ } ->
      let cl = Chg.Closure.compute g in
      let eager = Engine.build cl in
      let lazy_t = Memo.create cl in
      List.for_all
        (fun c ->
          List.for_all
            (fun m -> Engine.lookup eager c m = Memo.lookup lazy_t c m)
            members)
        (G.classes g))

(* The packed memo against the boxed one it replaced
   ([Memo_reference]) and the eager table, under random interleavings
   of its four operations, capped and uncapped: the same verdicts, the
   same residency, evict counts, root-query counts and [memo_*]
   counters.  A column handed out by [materialize_column] must never be
   written again, whatever is evicted or cleared after. *)
type memo_op =
  | Op_lookup of int * int  (* class pick, member *)
  | Op_materialize of int
  | Op_evict of int
  | Op_clear

let memo_members = [ "m"; "n"; "p"; "absent" ]

let memo_ops_arb =
  let op =
    QCheck.Gen.(
      frequency
        [ (6, map2 (fun c m -> Op_lookup (c, m)) (int_bound 1000) (int_bound 3));
          (2, map (fun m -> Op_materialize m) (int_bound 3));
          (2, map (fun k -> Op_evict k) (int_bound 20));
          (1, return Op_clear) ])
  in
  QCheck.make
    QCheck.Gen.(list_size (1 -- 40) op)
    ~print:(fun ops ->
      String.concat "; "
        (List.map
           (function
             | Op_lookup (c, m) -> Printf.sprintf "lookup(%d,%d)" c m
             | Op_materialize m -> Printf.sprintf "materialize(%d)" m
             | Op_evict k -> Printf.sprintf "evict(%d)" k
             | Op_clear -> "clear")
           ops))

let column_bytes col =
  let w = Chg.Binary.Writer.create () in
  Packed.write_column w col;
  Chg.Binary.Writer.contents w

(* Hierarchies past one 64-entry block of a partial column, so fills,
   evictions, compaction and freezing cross block boundaries. *)
let wide_instance_arb =
  QCheck.make
    QCheck.Gen.(
      map
        (fun (n, vp, seed) ->
          Hiergen.Families.random_static_dag ~n ~max_bases:3
            ~virtual_prob:(float_of_int vp /. 10.)
            ~declare_prob:0.3 ~static_prob:0.3 ~members ~seed)
        (triple (int_range 65 200) (int_range 0 10) (int_range 0 10000)))
    ~print:(fun i -> i.Hiergen.Families.description)

let packed_memo_matches_boxed ~count ~name instances caps =
  QCheck.Test.make ~count ~name
    (QCheck.triple instances (QCheck.option caps) memo_ops_arb)
    (fun ({ Hiergen.Families.graph = g; _ }, cap, ops) ->
      let cl = Chg.Closure.compute g in
      let eager = Engine.build cl in
      let n = G.num_classes g in
      let pm = Metrics.create () and bm = Metrics.create () in
      let packed = Memo.create ~metrics:pm ?max_entries:cap cl in
      let boxed = Memo_reference.create ~metrics:bm ?max_entries:cap cl in
      let handed = ref [] in
      let step op =
        match op with
        | Op_lookup (c, k) ->
          let c = c mod n and m = List.nth memo_members k in
          let v = Memo.lookup packed c m in
          v = Engine.lookup eager c m && v = Memo_reference.lookup boxed c m
        | Op_materialize k ->
          let m = List.nth memo_members k in
          let col = Memo.materialize_column packed m in
          handed := (col, column_bytes col) :: !handed;
          Packed.column_equal col (Packed.pack_column (Engine.column eager m))
          && Packed.column_equal col (Memo_reference.materialize_column boxed m)
        | Op_evict k -> Memo.evict packed k = Memo_reference.evict boxed k
        | Op_clear ->
          Memo.clear packed;
          Memo_reference.clear boxed;
          true
      in
      List.for_all
        (fun op ->
          step op
          && Memo.cached_entries packed = Memo_reference.cached_entries boxed
          && List.for_all
               (fun m ->
                 Memo.root_queries packed m = Memo_reference.root_queries boxed m)
               memo_members)
        ops
      && Metrics.counters pm = Metrics.counters bm
      && List.for_all (fun (col, bytes) -> column_bytes col = bytes) !handed)

let prop_packed_memo_matches_boxed =
  packed_memo_matches_boxed ~count
    ~name:"packed memo = boxed memo = eager table (lookup/materialize/evict/clear)"
    static_instance_arb (QCheck.int_range 1 12)

let prop_packed_memo_matches_boxed_wide =
  packed_memo_matches_boxed ~count:40
    ~name:"packed memo = boxed memo = eager table, 65-200 classes"
    wide_instance_arb (QCheck.int_range 1 300)

(* A promoted column does not depend on the order the memo filled it in:
   it equals a fresh pack of the single-member engine's column, and so
   do its snapshot bytes. *)
let prop_materialize_is_pack_column =
  QCheck.Test.make ~count
    ~name:"materialize_column = pack_column (bytes too), any query order"
    (QCheck.pair static_instance_arb
       (QCheck.list_of_size QCheck.Gen.(0 -- 30) (QCheck.int_bound 1000)))
    (fun ({ Hiergen.Families.graph = g; _ }, picks) ->
      let cl = Chg.Closure.compute g in
      let n = G.num_classes g in
      let memo = Memo.create cl in
      List.for_all
        (fun m ->
          List.iter (fun c -> ignore (Memo.lookup memo (n - 1 - (c mod n)) m)) picks;
          let col = Memo.materialize_column memo m in
          let fresh =
            Packed.pack_column (Engine.column (Engine.build_member cl m) m)
          in
          Packed.column_equal col fresh && column_bytes col = column_bytes fresh)
        members)

let prop_naive_matches_spec =
  QCheck.Test.make ~count:120 ~name:"naive propagation = spec" instance_arb
    (fun { Hiergen.Families.graph = g; _ } ->
      List.for_all
        (fun c ->
          List.for_all
            (fun m ->
              let expected = Spec.lookup g c m in
              Spec.verdict_equal g expected (Baselines.Naive.lookup g c m)
              && Spec.verdict_equal g expected
                   (Baselines.Naive.lookup_killing g c m))
            members)
        (G.classes g))

let prop_rf_and_fixed_gxx_match_spec =
  QCheck.Test.make ~count:120 ~name:"RF lookup & fixed g++ = spec"
    instance_arb (fun { Hiergen.Families.graph = g; _ } ->
      List.for_all
        (fun c ->
          let sg = Sgraph.build g c in
          List.for_all
            (fun m ->
              let spec = Spec.lookup g c m in
              let rf =
                Baselines.Rf_lookup.to_spec sg
                  (Baselines.Rf_lookup.lookup_in sg m)
              in
              Spec.verdict_equal g spec rf
              &&
              match
                (spec, Baselines.Gxx.lookup_in ~mode:Baselines.Gxx.Fixed sg m)
              with
              | Spec.Undeclared, Baselines.Gxx.Undeclared -> true
              | Spec.Resolved p, Baselines.Gxx.Resolved s ->
                Path.ldc p = Sgraph.ldc sg s
              | Spec.Ambiguous _, Baselines.Gxx.Ambiguous -> true
              | _ -> false)
            members)
        (G.classes g))

let prop_gxx_buggy_never_wrong_resolution =
  (* The g++ bug is one-sided: it may report false ambiguity, but when it
     does resolve, it resolves to the right declaring class. *)
  QCheck.Test.make ~count:120 ~name:"buggy g++ errs only towards ambiguity"
    instance_arb (fun { Hiergen.Families.graph = g; _ } ->
      List.for_all
        (fun c ->
          let sg = Sgraph.build g c in
          List.for_all
            (fun m ->
              match Baselines.Gxx.lookup_in ~mode:Baselines.Gxx.Buggy sg m with
              | Baselines.Gxx.Resolved s -> (
                match Spec.lookup g c m with
                | Spec.Resolved p -> Path.ldc p = Sgraph.ldc sg s
                | _ -> false)
              | Baselines.Gxx.Undeclared -> Spec.lookup g c m = Spec.Undeclared
              | Baselines.Gxx.Ambiguous -> true)
            members)
        (G.classes g))

let prop_topo_agrees_on_unambiguous =
  QCheck.Test.make ~count ~name:"topological shortcut on unambiguous lookups"
    instance_arb (fun { Hiergen.Families.graph = g; _ } ->
      let t = Baselines.Topo_lookup.prepare g in
      List.for_all
        (fun c ->
          List.for_all
            (fun m ->
              match Spec.lookup g c m with
              | Spec.Resolved p ->
                Baselines.Topo_lookup.resolve t c m = Some (Path.ldc p)
              | Spec.Undeclared -> Baselines.Topo_lookup.resolve t c m = None
              | Spec.Ambiguous _ -> true)
            members)
        (G.classes g))

let prop_dominance_partial_order =
  (* Lemma 2: dominance is a partial order on the ≈-classes. *)
  QCheck.Test.make ~count:80 ~name:"dominance is a partial order"
    instance_arb (fun { Hiergen.Families.graph = g; probe; _ } ->
      let paths = Path.all_to g probe in
      let dom = Path.dominates g in
      List.for_all (fun a -> dom a a) paths
      && List.for_all
           (fun a ->
             List.for_all
               (fun b ->
                 (* antisymmetry up to ≈ *)
                 (not (dom a b && dom b a)) || Path.equiv a b)
               paths)
           paths
      && List.for_all
           (fun a ->
             List.for_all
               (fun b ->
                 List.for_all
                   (fun c -> (not (dom a b && dom b c)) || dom a c)
                   paths)
               paths)
           paths)

let prop_equiv_is_equivalence =
  QCheck.Test.make ~count:80 ~name:"≈ is an equivalence relation"
    instance_arb (fun { Hiergen.Families.graph = g; probe; _ } ->
      let paths = Path.all_to g probe in
      List.for_all (fun a -> Path.equiv a a) paths
      && List.for_all
           (fun a ->
             List.for_all
               (fun b -> Path.equiv a b = Path.equiv b a)
               paths)
           paths)

let prop_closure_dominance_matches_spec =
  QCheck.Test.make ~count:80 ~name:"closure-based dominance = enumeration"
    instance_arb (fun { Hiergen.Families.graph = g; probe; _ } ->
      let cl = Chg.Closure.compute g in
      let paths = Path.all_to g probe in
      List.for_all
        (fun a ->
          List.for_all
            (fun b ->
              Path.dominates g a b = Path.dominates_via_closure cl a b)
            paths)
        paths)

let prop_theorem1_counts =
  QCheck.Test.make ~count:80 ~name:"theorem 1: subobject counts"
    instance_arb (fun { Hiergen.Families.graph = g; _ } ->
      let cl = Chg.Closure.compute g in
      List.for_all
        (fun c ->
          let materialized = Sgraph.count (Sgraph.build g c) in
          Spec.subobject_count g c = materialized
          && Subobject.Count.subobjects cl c = materialized)
        (G.classes g))

let prop_lemma3_extension_distributes =
  (* Lemma 3: γ.(X->Y) dominates δ.(X->Y) iff γ dominates δ. *)
  QCheck.Test.make ~count:80 ~name:"lemma 3: extension preserves dominance"
    instance_arb (fun { Hiergen.Families.graph = g; _ } ->
      List.for_all
        (fun y ->
          List.for_all
            (fun (b : G.base) ->
              let x = b.b_class in
              let paths = Path.all_to g x in
              List.for_all
                (fun gamma ->
                  List.for_all
                    (fun delta ->
                      let ext p = Path.extend p b.b_kind y in
                      Path.dominates g gamma delta
                      = Path.dominates g (ext gamma) (ext delta))
                    paths)
                paths)
            (G.bases g y))
        (G.classes g))

let prop_lazy_cache_bounded =
  QCheck.Test.make ~count:100 ~name:"memo touches only reachable bases"
    instance_arb (fun { Hiergen.Families.graph = g; probe; _ } ->
      let cl = Chg.Closure.compute g in
      let t = Memo.create cl in
      ignore (Memo.lookup t probe "m");
      let reachable =
        1 + Chg.Bitset.cardinal (Chg.Closure.bases_of cl probe)
      in
      Memo.cached_entries t <= reachable)

let prop_slicing_preserves_lookups =
  QCheck.Test.make ~count:150 ~name:"slicing preserves seed lookups"
    instance_arb (fun { Hiergen.Families.graph = g; _ } ->
      let seeds =
        List.concat_map
          (fun c ->
            List.map
              (fun m -> { Slicing.sd_class = c; sd_member = m })
              members)
          (G.classes g)
      in
      let s = Slicing.slice g seeds in
      List.for_all
        (fun (seed : Slicing.seed) ->
          let before = Spec.lookup g seed.sd_class seed.sd_member in
          match (before, Slicing.to_sliced s seed.sd_class) with
          | Spec.Undeclared, None -> true  (* nothing relevant kept *)
          | _, None -> false
          | _, Some c' ->
            let after = Spec.lookup s.sliced c' seed.sd_member in
            let fixed_names gg p =
              List.map (G.name gg) (Path.nodes (Path.fixed p))
            in
            (match (before, after) with
            | Spec.Undeclared, Spec.Undeclared -> true
            | Spec.Resolved p, Spec.Resolved q ->
              fixed_names g p = fixed_names s.sliced q
            | Spec.Ambiguous ps, Spec.Ambiguous qs ->
              List.sort compare (List.map (fixed_names g) ps)
              = List.sort compare (List.map (fixed_names s.sliced) qs)
            | _ -> false))
        seeds)

let prop_vtable_dispatch_matches_spec =
  (* dyn staging: the vtable's overrider for every slot equals the
     specification lookup at the complete object's class. *)
  QCheck.Test.make ~count:100 ~name:"vtable dispatch = spec lookup"
    instance_arb (fun { Hiergen.Families.graph = g; _ } ->
      let engine = Engine.build (Chg.Closure.compute g) in
      List.for_all
        (fun c ->
          let vt = Layout.Vtable.build engine c in
          List.for_all
            (fun (e : Layout.Vtable.entry) ->
              match Spec.lookup g c e.e_slot with
              | Spec.Resolved p -> e.e_overrider = Some (Path.ldc p)
              | Spec.Ambiguous _ -> e.e_overrider = None
              | Spec.Undeclared -> false (* a slot always has a decl *))
            vt.Layout.Vtable.vt_entries)
        (G.classes g))

(* Random access specifiers for the access-rights property: rebuild the
   instance graph with randomized member and edge access levels. *)
let with_random_access seed g =
  let st = Random.State.make [| seed; 77 |] in
  let pick () =
    match Random.State.int st 3 with
    | 0 -> G.Public
    | 1 -> G.Protected
    | _ -> G.Private
  in
  let b = G.create_builder () in
  List.iter
    (fun c ->
      ignore
        (G.add_class b (G.name g c)
           ~bases:
             (List.map
                (fun (e : G.base) -> (G.name g e.b_class, e.b_kind, pick ()))
                (G.bases g c))
           ~members:
             (List.map
                (fun (m : G.member) -> { m with G.m_access = pick () })
                (G.members g c))))
    (G.classes g);
  G.freeze b

let prop_access_dp_matches_enumeration =
  (* Access rights: the O(|N|+|E|) dynamic program over virtual-first
     continuations equals the enumerate-all-equivalent-paths spec, for
     every defining path of every lookup. *)
  QCheck.Test.make ~count:150 ~name:"access DP = path enumeration"
    instance_arb (fun { Hiergen.Families.graph = g0; _ } ->
      let g = with_random_access 11 g0 in
      let cl = Chg.Closure.compute g in
      List.for_all
        (fun c ->
          List.for_all
            (fun m ->
              List.for_all
                (fun p ->
                  match Chg.Graph.find_member g (Path.ldc p) m with
                  | None -> true
                  | Some mem ->
                    Frontend.Access.best_effective cl p ~member:mem
                    = Frontend.Access.best_effective_spec g p ~member:mem)
                (Spec.defns_path g c m))
            members)
        (G.classes g))

let prop_witness_path_bounds_best =
  (* the single witness path is never more permissive than the best *)
  QCheck.Test.make ~count:100 ~name:"witness access <= best access"
    instance_arb (fun { Hiergen.Families.graph = g0; _ } ->
      let g = with_random_access 23 g0 in
      let cl = Chg.Closure.compute g in
      List.for_all
        (fun c ->
          List.for_all
            (fun m ->
              List.for_all
                (fun p ->
                  match Chg.Graph.find_member g (Path.ldc p) m with
                  | None -> true
                  | Some mem ->
                    let best = Frontend.Access.best_effective cl p ~member:mem in
                    Frontend.Access.best
                      (Frontend.Access.along_path g p ~member:mem)
                      best
                    = best)
                (Spec.defns_path g c m))
            members)
        (G.classes g))

let prop_witness_is_maximal =
  (* the witness path of a red verdict denotes a maximal defining
     subobject (a most-dominant one, up to the static-group rule) *)
  QCheck.Test.make ~count:150 ~name:"witness path is a maximal definition"
    instance_arb (fun { Hiergen.Families.graph = g; _ } ->
      let eng =
        Engine.build ~static_rule:false ~witnesses:true
          (Chg.Closure.compute g)
      in
      List.for_all
        (fun c ->
          List.for_all
            (fun m ->
              match (Engine.lookup eng c m, Engine.witness eng c m) with
              | Some (Engine.Red _), Some w ->
                Path.mdc w = c
                && Chg.Graph.declares g (Path.ldc w) m
                && Path.in_graph g w
                && List.exists (Path.equiv w)
                     (Spec.maximal g (Spec.defns g c m))
              | Some (Engine.Red _), None -> false
              | (Some (Engine.Blue _) | None), w -> w = None)
            members)
        (G.classes g))

let prop_member_column_matches_table =
  (* build_member m is exactly the m-column of the full table *)
  QCheck.Test.make ~count:150 ~name:"single-member column = table column"
    instance_arb (fun { Hiergen.Families.graph = g; _ } ->
      let cl = Chg.Closure.compute g in
      let full = Engine.build cl in
      List.for_all
        (fun m ->
          let col = Engine.build_member cl m in
          List.for_all
            (fun c -> Engine.lookup col c m = Engine.lookup full c m)
            (G.classes g))
        members)

let json_gen =
  (* random JSON values for the serializer fuzz property *)
  QCheck.Gen.(
    sized (fun size ->
        fix
          (fun self n ->
            if n = 0 then
              oneof
                [ return Chg.Json.Null;
                  map (fun b -> Chg.Json.Bool b) bool;
                  map (fun i -> Chg.Json.Int i) int;
                  map (fun s -> Chg.Json.String s) (string_size (0 -- 10)) ]
            else
              frequency
                [ (2, self 0);
                  ( 1,
                    map
                      (fun l -> Chg.Json.List l)
                      (list_size (0 -- 4) (self (n / 2))) );
                  ( 1,
                    map
                      (fun l -> Chg.Json.Obj l)
                      (list_size (0 -- 4)
                         (pair (string_size (0 -- 6)) (self (n / 2)))) ) ])
          (min size 6)))

let prop_json_roundtrip =
  QCheck.Test.make ~count:500 ~name:"json print/parse roundtrip"
    (QCheck.make json_gen ~print:(fun j -> Chg.Json.to_string j))
    (fun j ->
      Chg.Json.of_string (Chg.Json.to_string j) = Ok j
      && Chg.Json.of_string (Chg.Json.to_string ~pretty:true j) = Ok j)

let prop_graph_serialization_roundtrip =
  QCheck.Test.make ~count:150 ~name:"graph serialization roundtrip"
    static_instance_arb (fun { Hiergen.Families.graph = g; _ } ->
      match Chg.Serialize.of_string (Chg.Serialize.to_string g) with
      | Error _ -> false
      | Ok g' ->
        G.num_classes g = G.num_classes g'
        && List.for_all
             (fun c ->
               G.name g c = G.name g' c
               && G.bases g c = G.bases g' c
               && G.members g c = G.members g' c)
             (G.classes g))

let prop_emit_parse_roundtrip =
  (* graph -> C++ source -> front end -> graph is the identity (compared
     through the canonical serialization) *)
  QCheck.Test.make ~count:150 ~name:"emit/parse roundtrip"
    static_instance_arb (fun { Hiergen.Families.graph = g; _ } ->
      let r = Frontend.Sema.analyze_source (Frontend.Emit.to_source g) in
      Frontend.Sema.ok r
      && Chg.Serialize.to_string g = Chg.Serialize.to_string r.graph)

let prop_incremental_matches_batch =
  QCheck.Test.make ~count:150 ~name:"incremental table = batch engine"
    static_instance_arb (fun { Hiergen.Families.graph = g; _ } ->
      let inc = Lookup_core.Incremental.create () in
      G.iter_classes g (fun c ->
          ignore
            (Lookup_core.Incremental.add_class inc (G.name g c)
               ~bases:
                 (List.map
                    (fun (b : G.base) ->
                      (G.name g b.b_class, b.b_kind, b.b_access))
                    (G.bases g c))
               ~members:(G.members g c)));
      let eng = Engine.build (Chg.Closure.compute g) in
      List.for_all
        (fun c ->
          List.for_all
            (fun m ->
              Engine.lookup eng c m = Lookup_core.Incremental.lookup inc c m)
            members)
        (G.classes g))

(* Mutation traces against a resident session: after every step the
   session's shared append-only closure must equal one computed from
   scratch over its published graph, and every lookup must equal a fresh
   engine's over that graph.  Compiled columns are promoted on first use,
   so [add_class] also exercises column extension. *)
type mutation_step =
  | Step_class of int * int * bool * int  (* base picks, virtual, member *)
  | Step_member of int * int  (* class pick, member *)

let mutation_members = [ "m"; "n"; "p"; "q" ]

let mutation_trace_gen =
  QCheck.Gen.(
    list_size (1 -- 8)
      (frequency
         [ ( 1,
             map
               (fun (a, b, v, m) -> Step_class (a, b, v, m))
               (quad (int_bound 1000) (int_bound 1000) bool (int_bound 3)) );
           ( 1,
             map (fun (c, m) -> Step_member (c, m))
               (pair (int_bound 1000) (int_bound 3)) ) ]))

let pp_step = function
  | Step_class (a, b, v, m) -> Printf.sprintf "class(%d,%d,%b,%d)" a b v m
  | Step_member (c, m) -> Printf.sprintf "member(%d,%d)" c m

let apply_step s k step =
  let g = Service.Session.graph s in
  let n = G.num_classes g in
  try
    match step with
    | Step_class (a, b, v, m) ->
      let bases =
        List.sort_uniq compare [ a mod n; b mod n ]
        |> List.map (fun x ->
               ( G.name g x,
                 (if v && x = a mod n then G.Virtual else G.Non_virtual),
                 G.Public ))
      in
      ignore
        (Service.Session.add_class s ~cls:(Printf.sprintf "T%d" k) ~bases
           ~members:[ G.member (List.nth mutation_members m) ])
    | Step_member (c, m) ->
      ignore
        (Service.Session.add_member s ~cls:(G.name g (c mod n))
           (G.member (List.nth mutation_members m)))
  with G.Error (G.Duplicate_member _) -> ()

let closure_matches_scratch s =
  let shared = Service.Session.closure s in
  let g = Service.Session.graph s in
  let fresh = Chg.Closure.compute g in
  let n = G.num_classes g in
  Chg.Closure.graph shared == g
  && List.for_all
       (fun x ->
         Chg.Bitset.equal
           (Chg.Closure.derived_of shared x)
           (Chg.Closure.derived_of fresh x)
         && List.for_all
              (fun y ->
                Chg.Closure.is_base shared x y = Chg.Closure.is_base fresh x y
                && Chg.Closure.is_virtual_base shared x y
                   = Chg.Closure.is_virtual_base fresh x y
                && ((x < y) || not (Chg.Closure.is_virtual_base shared x y)))
              (List.init n Fun.id))
       (List.init n Fun.id)

let lookups_match_fresh_engine s =
  let g = Service.Session.graph s in
  let eng = Engine.build (Chg.Closure.compute g) in
  List.for_all
    (fun c ->
      List.for_all
        (fun m ->
          match Service.Session.lookup s (G.name g c) m with
          | Ok (v, _) -> v = Engine.lookup eng c m
          | Error _ -> false)
        mutation_members)
    (G.classes g)

let prop_mutation_traces_match_scratch =
  QCheck.Test.make ~count:150
    ~name:"session mutations: shared closure and lookups = from scratch"
    (QCheck.pair static_instance_arb
       (QCheck.make mutation_trace_gen ~print:(fun l ->
            String.concat "; " (List.map pp_step l))))
    (fun ({ Hiergen.Families.graph = g; _ }, trace) ->
      let s =
        Service.Session.create
          ~config:
            { Service.Session.default_config with promote_threshold = 1 }
          ~name:"p" g
      in
      (* compile a column or two before mutating *)
      ignore (Service.Session.lookup s (G.name g 0) "m");
      ignore (Service.Session.lookup s (G.name g 0) "n");
      let ok = ref (closure_matches_scratch s && lookups_match_fresh_engine s) in
      List.iteri
        (fun k step ->
          if !ok then begin
            apply_step s k step;
            ok := closure_matches_scratch s && lookups_match_fresh_engine s
          end)
        trace;
      !ok)

(* The same traces with every column promoted before each step: each
   resident column (extended by [add_class], dropped and re-promoted
   around [add_member]) equals a fresh pack of the single-member engine
   over the published graph, and each [add_member]'s row count equals
   the incremental engine's on the same trace. *)
let prop_mutation_columns_and_rows =
  QCheck.Test.make ~count:150
    ~name:"session mutations: resident columns = fresh pack, rows = incremental"
    (QCheck.pair static_instance_arb
       (QCheck.make mutation_trace_gen ~print:(fun l ->
            String.concat "; " (List.map pp_step l))))
    (fun ({ Hiergen.Families.graph = g; _ }, trace) ->
      let s =
        Service.Session.create
          ~config:
            { Service.Session.default_config with promote_threshold = 1 }
          ~name:"p" g
      in
      (* its own hierarchy: only the newest snapshot of one can grow *)
      let inc = Lookup_core.Incremental.create () in
      G.iter_classes g (fun c ->
          ignore
            (Lookup_core.Incremental.add_class inc (G.name g c)
               ~bases:
                 (List.map
                    (fun (b : G.base) -> (G.name g b.b_class, b.b_kind, b.b_access))
                    (G.bases g c))
               ~members:(G.members g c)));
      let promote_all () =
        let g = Service.Session.graph s in
        List.iter
          (fun m -> ignore (Service.Session.lookup s (G.name g 0) m))
          mutation_members
      in
      let columns_fresh () =
        let cl = Chg.Closure.compute (Service.Session.graph s) in
        List.for_all
          (fun (m, col) ->
            Packed.column_equal col
              (Packed.pack_column (Engine.column (Engine.build_member cl m) m)))
          (Service.Session.compiled_columns s)
      in
      let raises f = match f () with _ -> false | exception G.Error _ -> true in
      let apply k step =
        let g = Service.Session.graph s in
        let n = G.num_classes g in
        match step with
        | Step_class (a, b, v, m) ->
          let bases =
            List.sort_uniq compare [ a mod n; b mod n ]
            |> List.map (fun x ->
                   ( G.name g x,
                     (if v && x = a mod n then G.Virtual else G.Non_virtual),
                     G.Public ))
          and cls = Printf.sprintf "T%d" k
          and members = [ G.member (List.nth mutation_members m) ] in
          ignore (Service.Session.add_class s ~cls ~bases ~members);
          ignore (Lookup_core.Incremental.add_class inc cls ~bases ~members);
          true
        | Step_member (c, m) ->
          let cls = G.name g (c mod n)
          and mem = G.member (List.nth mutation_members m) in
          (match Service.Session.add_member s ~cls mem with
          | rows, _ -> rows = Lookup_core.Incremental.add_member inc cls mem
          | exception G.Error _ ->
            raises (fun () -> Lookup_core.Incremental.add_member inc cls mem))
      in
      promote_all ();
      let ok = ref (columns_fresh ()) in
      List.iteri
        (fun k step ->
          if !ok then begin
            promote_all ();
            ok := apply k step && columns_fresh ()
          end)
        trace;
      !ok)

let prop_layout_size_accounting =
  (* Exact size accounting: every subobject contributes its own vptr (if
     its class is polymorphic) plus a word per non-static data member of
     its class; the object is the disjoint union of these contributions
     (minimum one word for empty objects).  Also: all offsets in range. *)
  QCheck.Test.make ~count:100 ~name:"layout size accounting" instance_arb
    (fun { Hiergen.Families.graph = g; probe; _ } ->
      let t = Layout.Object_layout.of_class g probe in
      let word = Layout.Object_layout.word in
      let contribution sub =
        let l = Sgraph.ldc t.sgraph sub in
        let data =
          List.length
            (List.filter
               (fun (m : G.member) -> m.m_kind = G.Data && not m.m_static)
               (G.members g l))
        in
        (if Layout.Object_layout.has_vptr g l then word else 0)
        + (word * data)
      in
      let expected =
        max word
          (List.fold_left
             (fun acc sl ->
               acc + contribution sl.Layout.Object_layout.sl_subobject)
             0 t.slots)
      in
      t.size = expected
      && List.for_all
           (fun sl ->
             sl.Layout.Object_layout.sl_offset >= 0
             && sl.Layout.Object_layout.sl_offset <= t.size)
           t.slots)

let suite =
  List.map QCheck_alcotest.to_alcotest
    [ prop_engine_matches_spec;
      prop_engine_matches_spec_static;
      prop_memo_matches_eager;
      prop_packed_memo_matches_boxed;
      prop_packed_memo_matches_boxed_wide;
      prop_materialize_is_pack_column;
      prop_naive_matches_spec;
      prop_rf_and_fixed_gxx_match_spec;
      prop_gxx_buggy_never_wrong_resolution;
      prop_topo_agrees_on_unambiguous;
      prop_dominance_partial_order;
      prop_equiv_is_equivalence;
      prop_closure_dominance_matches_spec;
      prop_theorem1_counts;
      prop_lemma3_extension_distributes;
      prop_lazy_cache_bounded;
      prop_slicing_preserves_lookups;
      prop_vtable_dispatch_matches_spec;
      prop_access_dp_matches_enumeration;
      prop_witness_path_bounds_best;
      prop_incremental_matches_batch;
      prop_mutation_traces_match_scratch;
      prop_mutation_columns_and_rows;
      prop_emit_parse_roundtrip;
      prop_member_column_matches_table;
      prop_witness_is_maximal;
      prop_json_roundtrip;
      prop_graph_serialization_roundtrip;
      prop_layout_size_accounting ]
