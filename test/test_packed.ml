(* The packed verdict-column table: equivalence with the eager engine
   and the executable specification on random hierarchies, lossless
   conversion both ways, the Ω-coding edge cases, and the parallel
   build's determinism contract (byte-identical tables and snapshots
   for every --jobs). *)

module G = Chg.Graph
module Spec = Subobject.Spec
module A = Lookup_core.Abstraction
module Engine = Lookup_core.Engine
module Packed = Lookup_core.Packed

let members = [ "m"; "n"; "p" ]

(* Seeded family parameters, as in test_props: shrinking stays
   meaningful and every failure reproduces from its parameters. *)
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

(* The tentpole equivalence, 500 cases: the packed table answers every
   (class, member) exactly like the eager boxed engine, and — through
   to_engine — like the path-enumerating specification. *)
let prop_packed_matches_eager_and_spec =
  QCheck.Test.make ~count:500 ~name:"packed = eager engine = spec oracle"
    instance_arb (fun { Hiergen.Families.graph = g; _ } ->
      let cl = Chg.Closure.compute g in
      let eager = Engine.build cl in
      let packed = Packed.build cl in
      let unpacked = Packed.to_engine packed in
      List.for_all
        (fun c ->
          List.for_all
            (fun m ->
              Packed.lookup packed c m = Engine.lookup eager c m
              && Packed.resolves_to packed c m = Engine.resolves_to eager c m
              && Engine.agrees_with_spec unpacked
                   ~spec_verdict:(Spec.lookup g c m) c m)
            members)
        (G.classes g))

(* of_engine/to_engine round-trip: verdicts, Members[C] sets, and the
   canonical encoding all survive. *)
let prop_roundtrip =
  QCheck.Test.make ~count:300 ~name:"of_engine/to_engine round-trip"
    instance_arb (fun { Hiergen.Families.graph = g; _ } ->
      let e = Engine.build (Chg.Closure.compute g) in
      let p = Packed.of_engine e in
      let e' = Packed.to_engine p in
      List.for_all
        (fun c ->
          Engine.members e' c = Engine.members e c
          && List.for_all
               (fun m -> Engine.lookup e' c m = Engine.lookup e c m)
               members)
        (G.classes g)
      && String.equal (Packed.encode (Packed.of_engine e')) (Packed.encode p))

(* Ω coding: Ω maps to code n (one past the largest class id), so the
   extreme corners — ldc = n-1 with lv = Ω in the immediate singleton,
   Ω leading a blue/group arena slice — must round-trip exactly. *)
(* The same columns as zero-copy views: the image payload's word area
   copied into a Bigarray, as a mapped snapshot file would present it. *)
let mapped cols =
  let w = Chg.Binary.Writer.create () in
  Packed.write_image w ~file_offset:0 cols;
  let bytes = Chg.Binary.Writer.contents w in
  let names, word_off = Packed.image_header (Chg.Binary.Reader.of_string bytes) in
  let words = (String.length bytes - word_off) / 8 in
  let buf = Bigarray.Array1.create Bigarray.int Bigarray.c_layout words in
  for i = 0 to words - 1 do
    buf.{i} <- Int64.to_int (String.get_int64_le bytes (word_off + (8 * i)))
  done;
  Packed.map_image buf ~names

(* column_append re-encodes the packed ints directly; it must produce
   exactly the bits of unpacking, appending and re-packing — for heap
   columns and mapped views, for every shape of appended verdict (the
   new class's own declaration, Ω and the new class id inside arena
   slices), and twice in a row. *)
let prop_column_append_matches_repack =
  QCheck.Test.make ~count:300 ~name:"column_append = unpack/append/pack"
    instance_arb (fun { Hiergen.Families.graph = g; _ } ->
      let cols = Packed.columns (Packed.build (Chg.Closure.compute g)) in
      let n = G.num_classes g in
      let red ldc lvs = Some (Engine.Red { A.r_ldc = ldc; r_lvs = lvs }) in
      let appended col =
        [ None; red n [ A.Omega ]; red 0 [ A.Lv n ];
          red (n - 1) [ A.Omega; A.Lv 0 ];
          Some (Engine.Blue [ A.Omega; A.Lv n ]) ]
        @ List.init n (Packed.column_get col)
      in
      let repack col v =
        Packed.pack_column (Array.append (Packed.unpack_column col) [| v |])
      in
      let agrees col =
        List.for_all
          (fun v ->
            let once = Packed.column_append col v in
            Packed.column_equal once (repack col v)
            && (not (Packed.column_is_view once))
            && Packed.column_equal
                 (Packed.column_append once (red n [ A.Omega ]))
                 (repack (repack col v) (red n [ A.Omega ])))
          (appended col)
      in
      List.for_all (fun (_, col) -> agrees col) cols
      && List.for_all
           (fun (_, col) -> Packed.column_is_view col && agrees col)
           (mapped cols))

let test_omega_edge_cases () =
  let red ldc lvs = Some (Engine.Red { A.r_ldc = ldc; r_lvs = lvs }) in
  let boxed =
    [| red 2 [ A.Omega ];                  (* max ldc, Ω lv: immediate *)
       Some (Engine.Blue [ A.Omega; A.Lv 0; A.Lv 2 ]);  (* Ω first *)
       red 0 [ A.Omega; A.Lv 1 ];          (* Section-6 group with Ω *)
    |]
  in
  let col = Packed.pack_column boxed in
  Alcotest.(check bool) "unpack = original" true
    (Packed.unpack_column col = boxed);
  Array.iteri
    (fun c v ->
      Alcotest.(check bool)
        (Printf.sprintf "column_get %d" c)
        true
        (Packed.column_get col c = v))
    boxed;
  Alcotest.(check (option int)) "resolves_to max ldc" (Some 2)
    (Packed.column_resolves_to col 0);
  Alcotest.(check (option int)) "blue does not resolve" None
    (Packed.column_resolves_to col 1);
  (* a single-class column: the only class id is 0 and Ω codes as 1 *)
  let tiny = Packed.pack_column [| red 0 [ A.Omega ] |] in
  Alcotest.(check bool) "1-class Ω round-trip" true
    (Packed.unpack_column tiny = [| red 0 [ A.Omega ] |])

(* The determinism contract: the packed table — and a snapshot carrying
   its columns — is byte-identical whatever the domain count. *)
let test_parallel_determinism () =
  let i =
    Hiergen.Families.random_dag ~n:60 ~max_bases:3 ~virtual_prob:0.3
      ~declare_prob:0.3
      ~members:(List.init 8 (fun k -> Printf.sprintf "m%d" k))
      ~seed:123
  in
  let g = i.Hiergen.Families.graph in
  let cl = Chg.Closure.compute g in
  let snapshot_bytes table =
    Store.Snapshot.encode
      { Store.Snapshot.s_session = "det";
        s_epoch = 0;
        s_protocol = "cxxlookup-rpc/1";
        s_graph = g;
        s_columns = Packed.columns table }
  in
  let reference = Packed.build ~jobs:1 cl in
  let ref_enc = Packed.encode reference in
  let ref_snap = snapshot_bytes reference in
  List.iter
    (fun jobs ->
      let table = Packed.build ~jobs cl in
      Alcotest.(check bool)
        (Printf.sprintf "table bytes identical (jobs=%d)" jobs)
        true
        (String.equal (Packed.encode table) ref_enc);
      Alcotest.(check bool)
        (Printf.sprintf "snapshot bytes identical (jobs=%d)" jobs)
        true
        (String.equal (snapshot_bytes table) ref_snap))
    [ 2; 4; 7 ]

(* Parallel workers run with private metrics bags merged at join: the
   counter totals must not depend on the schedule either. *)
let test_parallel_metrics_merge () =
  let module Metrics = Lookup_core.Metrics in
  let i =
    Hiergen.Families.random_dag ~n:40 ~max_bases:3 ~virtual_prob:0.2
      ~declare_prob:0.4
      ~members:(List.init 6 (fun k -> Printf.sprintf "m%d" k))
      ~seed:5
  in
  let cl = Chg.Closure.compute i.Hiergen.Families.graph in
  let counters jobs =
    let metrics = Metrics.create () in
    ignore (Packed.build ~jobs ~metrics cl);
    Telemetry.Json.to_string (Metrics.counters_json metrics)
  in
  let reference = counters 1 in
  List.iter
    (fun jobs ->
      Alcotest.(check string)
        (Printf.sprintf "merged counters (jobs=%d)" jobs)
        reference (counters jobs))
    [ 2; 4 ]

let suite =
  List.map QCheck_alcotest.to_alcotest
    [ prop_packed_matches_eager_and_spec; prop_roundtrip;
      prop_column_append_matches_repack ]
  @ [ Alcotest.test_case "Ω coding edge cases" `Quick test_omega_edge_cases;
      Alcotest.test_case "parallel determinism" `Quick
        test_parallel_determinism;
      Alcotest.test_case "parallel metrics merge" `Quick
        test_parallel_metrics_merge ]
