(* Unit tests for the class hierarchy graph: builder validation, the
   order-independent constructor, closures and topological order. *)

module G = Chg.Graph

let nv = G.Non_virtual
let v = G.Virtual

let simple_diamond () =
  (* A; B : A; C : virtual A; D : B, C *)
  let b = G.create_builder () in
  ignore (G.add_class b "A" ~bases:[] ~members:[ G.member "m" ]);
  ignore (G.add_class b "B" ~bases:[ ("A", nv, G.Public) ] ~members:[]);
  ignore (G.add_class b "C" ~bases:[ ("A", v, G.Public) ] ~members:[]);
  ignore
    (G.add_class b "D"
       ~bases:[ ("B", nv, G.Public); ("C", nv, G.Public) ]
       ~members:[ G.member "n" ]);
  G.freeze b

let test_basic_accessors () =
  let g = simple_diamond () in
  Alcotest.(check int) "classes" 4 (G.num_classes g);
  Alcotest.(check int) "edges" 4 (G.num_edges g);
  Alcotest.(check string) "name" "A" (G.name g (G.find g "A"));
  Alcotest.(check (list string)) "member names" [ "m"; "n" ] (G.member_names g);
  Alcotest.(check bool) "declares" true (G.declares g (G.find g "A") "m");
  Alcotest.(check bool) "not declares" false (G.declares g (G.find g "B") "m");
  let d = G.find g "D" in
  Alcotest.(check (list string)) "bases of D in order" [ "B"; "C" ]
    (List.map (fun (b : G.base) -> G.name g b.b_class) (G.bases g d));
  let a = G.find g "A" in
  Alcotest.(check (list string)) "derived of A" [ "B"; "C" ]
    (List.map (fun (c, _) -> G.name g c) (G.derived g a))

let expect_error expected f =
  match f () with
  | _ -> Alcotest.failf "expected error %s" (G.error_to_string expected)
  | exception G.Error e ->
    Alcotest.(check string) "error" (G.error_to_string expected)
      (G.error_to_string e)

let test_duplicate_class () =
  expect_error (G.Duplicate_class "A") (fun () ->
      let b = G.create_builder () in
      ignore (G.add_class b "A" ~bases:[] ~members:[]);
      G.add_class b "A" ~bases:[] ~members:[])

let test_unknown_base () =
  expect_error (G.Unknown_base { cls = "B"; base = "Zed" }) (fun () ->
      let b = G.create_builder () in
      G.add_class b "B" ~bases:[ ("Zed", nv, G.Public) ] ~members:[])

let test_duplicate_base () =
  expect_error (G.Duplicate_base { cls = "B"; base = "A" }) (fun () ->
      let b = G.create_builder () in
      ignore (G.add_class b "A" ~bases:[] ~members:[]);
      G.add_class b "B"
        ~bases:[ ("A", nv, G.Public); ("A", v, G.Public) ]
        ~members:[])

let test_duplicate_member () =
  expect_error (G.Duplicate_member { cls = "A"; member = "m" }) (fun () ->
      let b = G.create_builder () in
      G.add_class b "A" ~bases:[] ~members:[ G.member "m"; G.member "m" ])

let test_of_decls_forward_refs () =
  (* Declarations listed derived-first: of_decls must reorder. *)
  let decls =
    [ { G.d_name = "D"; d_bases = [ ("B", nv, G.Public) ]; d_members = [] };
      { G.d_name = "B"; d_bases = [ ("A", nv, G.Public) ]; d_members = [] };
      { G.d_name = "A"; d_bases = []; d_members = [ G.member "m" ] } ]
  in
  match G.of_decls decls with
  | Error e -> Alcotest.failf "unexpected error: %s" (G.error_to_string e)
  | Ok g ->
    Alcotest.(check int) "classes" 3 (G.num_classes g);
    Alcotest.(check bool) "topological ids" true
      (Chg.Topo.is_topological g (Array.of_list (G.classes g)))

let test_of_decls_cycle () =
  let decls =
    [ { G.d_name = "A"; d_bases = [ ("B", nv, G.Public) ]; d_members = [] };
      { G.d_name = "B"; d_bases = [ ("A", nv, G.Public) ]; d_members = [] } ]
  in
  match G.of_decls decls with
  | Ok _ -> Alcotest.fail "cycle not detected"
  | Error (G.Cyclic_hierarchy cycle) ->
    Alcotest.(check bool) "cycle mentions both" true
      (List.mem "A" cycle && List.mem "B" cycle)
  | Error e -> Alcotest.failf "wrong error: %s" (G.error_to_string e)

let test_of_decls_self_cycle () =
  let decls =
    [ { G.d_name = "A"; d_bases = [ ("A", nv, G.Public) ]; d_members = [] } ]
  in
  match G.of_decls decls with
  | Ok _ -> Alcotest.fail "self-cycle not detected"
  | Error (G.Cyclic_hierarchy _) -> ()
  | Error e -> Alcotest.failf "wrong error: %s" (G.error_to_string e)

let test_closure_bases () =
  let g = simple_diamond () in
  let cl = Chg.Closure.compute g in
  let id = G.find g in
  Alcotest.(check bool) "A base of D" true
    (Chg.Closure.is_base cl (id "A") (id "D"));
  Alcotest.(check bool) "D not base of A" false
    (Chg.Closure.is_base cl (id "D") (id "A"));
  Alcotest.(check bool) "A not base of A" false
    (Chg.Closure.is_base cl (id "A") (id "A"));
  Alcotest.(check bool) "base-or-self" true
    (Chg.Closure.is_base_or_self cl (id "A") (id "A"))

let test_closure_virtual_bases () =
  let g = simple_diamond () in
  let cl = Chg.Closure.compute g in
  let id = G.find g in
  (* A is a virtual base of C (direct virtual edge) and of D (path A=C-D
     starting with the virtual edge), but not of B. *)
  Alcotest.(check bool) "A vbase of C" true
    (Chg.Closure.is_virtual_base cl (id "A") (id "C"));
  Alcotest.(check bool) "A vbase of D" true
    (Chg.Closure.is_virtual_base cl (id "A") (id "D"));
  Alcotest.(check bool) "A not vbase of B" false
    (Chg.Closure.is_virtual_base cl (id "A") (id "B"));
  Alcotest.(check bool) "B not vbase of D" false
    (Chg.Closure.is_virtual_base cl (id "B") (id "D"))

let test_closure_deep_virtual () =
  (* Virtual bases propagate to transitively derived classes:
     V; M : virtual V; X : M; Y : X.  V is a virtual base of X and Y. *)
  let b = G.create_builder () in
  ignore (G.add_class b "V" ~bases:[] ~members:[]);
  ignore (G.add_class b "M" ~bases:[ ("V", v, G.Public) ] ~members:[]);
  ignore (G.add_class b "X" ~bases:[ ("M", nv, G.Public) ] ~members:[]);
  ignore (G.add_class b "Y" ~bases:[ ("X", nv, G.Public) ] ~members:[]);
  let g = G.freeze b in
  let cl = Chg.Closure.compute g in
  let id = G.find g in
  Alcotest.(check bool) "V vbase of Y" true
    (Chg.Closure.is_virtual_base cl (id "V") (id "Y"));
  Alcotest.(check bool) "M not vbase of Y" false
    (Chg.Closure.is_virtual_base cl (id "M") (id "Y"))

let test_topo_order () =
  let g = Hiergen.Figures.fig3 () in
  let ord = Chg.Topo.order g in
  Alcotest.(check bool) "kahn order is topological" true
    (Chg.Topo.is_topological g ord);
  Alcotest.(check bool) "id order is topological" true
    (Chg.Topo.is_topological g (Array.of_list (G.classes g)));
  let num = Chg.Topo.numbers g in
  Alcotest.(check bool) "base before derived" true
    (num.(G.find g "A") < num.(G.find g "H"))

let test_derived_closure () =
  let g = simple_diamond () in
  let cl = Chg.Closure.compute g in
  let id = G.find g in
  Alcotest.(check (list int)) "derived of A" [ id "B"; id "C"; id "D" ]
    (Chg.Bitset.elements (Chg.Closure.derived_of cl (id "A")))

(* Snapshots are persistent: growing the newest one in place leaves
   every earlier snapshot answering as before, and an earlier snapshot
   refuses to grow rather than clobber the newer one. *)
let test_persistent_snapshots () =
  let g = simple_diamond () in
  let names g = List.map (G.name g) (G.classes g) in
  let derived g c = List.map (fun (d, _) -> G.name g d) (G.derived g (G.find g c)) in
  let cl = Chg.Closure.compute g in
  let g1 = G.append_class g "E" ~bases:[ ("A", v, G.Public) ] ~members:[] in
  let g2 = G.append_member g1 "A" (G.member "p") in
  Alcotest.(check (list string)) "old snapshot unchanged" [ "A"; "B"; "C"; "D" ]
    (names g);
  Alcotest.(check (option int)) "old snapshot cannot find E" None
    (G.find_opt g "E");
  Alcotest.(check (list string)) "old derived of A" [ "B"; "C" ] (derived g "A");
  Alcotest.(check (list string)) "new derived of A" [ "B"; "C"; "E" ]
    (derived g1 "A");
  Alcotest.(check int) "edges grow" (G.num_edges g + 1) (G.num_edges g1);
  Alcotest.(check bool) "member only in the newer snapshot" true
    ((not (G.declares g1 0 "p")) && G.declares g2 0 "p");
  Alcotest.check_raises "an older snapshot cannot grow"
    (Invalid_argument "Graph.append_class: only the newest snapshot can grow")
    (fun () ->
      ignore (G.append_class g "F" ~bases:[ ("D", nv, G.Public) ] ~members:[]));
  Alcotest.(check (list string)) "the refusal changed nothing"
    [ "A"; "B"; "C"; "D"; "E" ] (names g1);
  (* the closure follows the graph: one row per appended class *)
  let cl1 = Chg.Closure.append cl g1 in
  Alcotest.check_raises "an older closure cannot grow"
    (Invalid_argument "Closure.append: only the newest snapshot can grow")
    (fun () -> ignore (Chg.Closure.append cl g1));
  let g3 = G.append_class g2 "F" ~bases:[ ("D", nv, G.Public) ] ~members:[] in
  let cl3 = Chg.Closure.append (Chg.Closure.with_graph cl1 g2) g3 in
  let id = G.find g in
  Alcotest.(check bool) "A is a virtual base of E" true
    (Chg.Closure.is_virtual_base cl1 (id "A") 4);
  Alcotest.(check bool) "B is a base of F, A a virtual one through C" true
    (Chg.Closure.is_base cl3 (id "B") 5
    && (not (Chg.Closure.is_virtual_base cl3 (id "B") 5))
    && Chg.Closure.is_virtual_base cl3 (id "A") 5);
  Alcotest.(check (list int)) "old closure: derived of A" [ 1; 2; 3 ]
    (Chg.Bitset.elements (Chg.Closure.derived_of cl (id "A")));
  List.iter
    (fun (what, cl', g') ->
      let fresh = Chg.Closure.compute g' in
      G.iter_classes g' (fun x ->
          G.iter_classes g' (fun y ->
              Alcotest.(check bool)
                (Printf.sprintf "%s: is_base %d %d" what x y)
                (Chg.Closure.is_base fresh x y) (Chg.Closure.is_base cl' x y);
              Alcotest.(check bool)
                (Printf.sprintf "%s: is_virtual_base %d %d" what x y)
                (Chg.Closure.is_virtual_base fresh x y)
                (Chg.Closure.is_virtual_base cl' x y))))
    [ ("original", cl, g); ("appended", cl1, g1); ("appended twice", cl3, g3) ]

let test_dot_output () =
  let g = simple_diamond () in
  let dot = Chg.Dot.to_dot g in
  Alcotest.(check bool) "digraph" true
    (String.length dot > 0
    && String.sub dot 0 7 = "digraph");
  (* One dashed edge for the virtual A -> C. *)
  let dashed =
    String.split_on_char '\n' dot
    |> List.filter (fun l ->
           let re = "style=dashed" in
           let rec contains i =
             i + String.length re <= String.length l
             && (String.sub l i (String.length re) = re || contains (i + 1))
           in
           contains 0)
  in
  Alcotest.(check int) "one dashed edge" 1 (List.length dashed)

let suite =
  [ Alcotest.test_case "accessors" `Quick test_basic_accessors;
    Alcotest.test_case "duplicate class rejected" `Quick test_duplicate_class;
    Alcotest.test_case "unknown base rejected" `Quick test_unknown_base;
    Alcotest.test_case "duplicate base rejected" `Quick test_duplicate_base;
    Alcotest.test_case "duplicate member rejected" `Quick test_duplicate_member;
    Alcotest.test_case "of_decls reorders forward refs" `Quick
      test_of_decls_forward_refs;
    Alcotest.test_case "of_decls detects cycles" `Quick test_of_decls_cycle;
    Alcotest.test_case "of_decls detects self-cycle" `Quick
      test_of_decls_self_cycle;
    Alcotest.test_case "closure: bases" `Quick test_closure_bases;
    Alcotest.test_case "closure: virtual bases" `Quick
      test_closure_virtual_bases;
    Alcotest.test_case "closure: deep virtual bases" `Quick
      test_closure_deep_virtual;
    Alcotest.test_case "topological order" `Quick test_topo_order;
    Alcotest.test_case "derived closure" `Quick test_derived_closure;
    Alcotest.test_case "persistent snapshots and closure rows" `Quick
      test_persistent_snapshots;
    Alcotest.test_case "dot export" `Quick test_dot_output ]
