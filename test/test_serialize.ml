(* Tests for the JSON substrate and graph (de)serialization. *)

module G = Chg.Graph
module Json = Chg.Json

let json_roundtrip ?(pretty = false) j =
  match Json.of_string (Json.to_string ~pretty j) with
  | Ok j' -> j' = j
  | Error _ -> false

let test_json_values () =
  List.iter
    (fun j ->
      Alcotest.(check bool)
        (Json.to_string j)
        true
        (json_roundtrip j && json_roundtrip ~pretty:true j))
    [ Json.Null; Json.Bool true; Json.Bool false; Json.Int 0; Json.Int (-42);
      Json.Int max_int; Json.String ""; Json.String "hello";
      Json.String "quotes \" and \\ and \n tabs \t";
      Json.List []; Json.List [ Json.Int 1; Json.Int 2 ];
      Json.Obj [];
      Json.Obj
        [ ("a", Json.List [ Json.Obj [ ("b", Json.Null) ] ]);
          ("c", Json.String "d") ] ]

let test_json_parse_basics () =
  Alcotest.(check bool) "whitespace" true
    (Json.of_string "  { \"a\" : [ 1 , 2 ] }  "
    = Ok (Json.Obj [ ("a", Json.List [ Json.Int 1; Json.Int 2 ]) ]));
  Alcotest.(check bool) "unicode escape" true
    (Json.of_string "\"a\\u0041b\\u004a\\u004A\"" = Ok (Json.String "aAbJJ"));
  Alcotest.(check bool) "named escapes" true
    (Json.of_string "\"a\\n\\t\\\\b\"" = Ok (Json.String "a\n\t\\b"))

let test_json_errors () =
  List.iter
    (fun src ->
      match Json.of_string src with
      | Ok _ -> Alcotest.failf "accepted malformed %S" src
      | Error msg ->
        Alcotest.(check bool) "has message" true (String.length msg > 0))
    [ ""; "{"; "["; "\"unterminated"; "1.5"; "1e3"; "nul"; "[1,]";
      "{\"a\":}"; "{\"a\" 1}"; "[1] garbage"; "{1: 2}"; {|"\u0_4a"|} ];
  (* a [\u] escape is exactly four hex digits: [int_of_string_opt
     "0x0_4a"] is 74, so a digit separator must not pass for one *)
  List.iter
    (fun (src, msg) ->
      Alcotest.(check (result reject string)) src
        (Error ("JSON error at offset 3: " ^ msg))
        (Json.of_string src))
    [ ({|"\u0_4a"|}, "malformed \\u escape");
      ({|"\u004_"|}, "malformed \\u escape");
      ({|"\u+04a"|}, "malformed \\u escape");
      ({|"\u00e9"|}, "non-ASCII \\u escapes are not supported");
      ({|"\u004|}, "truncated \\u escape") ]

let graphs_equal a b =
  G.num_classes a = G.num_classes b
  && List.for_all
       (fun c ->
         G.name a c = G.name b c
         && G.bases a c = G.bases b c
         && G.members a c = G.members b c)
       (G.classes a)

let test_graph_roundtrip_figures () =
  List.iter
    (fun mk ->
      let g = mk () in
      match Chg.Serialize.of_string (Chg.Serialize.to_string g) with
      | Ok g' -> Alcotest.(check bool) "roundtrip" true (graphs_equal g g')
      | Error e -> Alcotest.failf "roundtrip failed: %s" e)
    [ Hiergen.Figures.fig1; Hiergen.Figures.fig2; Hiergen.Figures.fig3;
      Hiergen.Figures.fig9 ]

let test_graph_roundtrip_rich_members () =
  let b = G.create_builder () in
  ignore
    (G.add_class b "X" ~bases:[]
       ~members:
         [ G.member ~access:G.Private "a";
           G.member ~kind:G.Function ~virtual_:true ~access:G.Protected "f";
           G.member ~static:true "s";
           G.member ~kind:G.Type "T";
           G.member ~kind:G.Enumerator "red" ]);
  ignore
    (G.add_class b "Y" ~bases:[ ("X", G.Virtual, G.Protected) ] ~members:[]);
  let g = G.freeze b in
  match Chg.Serialize.of_string (Chg.Serialize.to_string ~pretty:true g) with
  | Ok g' -> Alcotest.(check bool) "roundtrip" true (graphs_equal g g')
  | Error e -> Alcotest.failf "roundtrip failed: %s" e

let test_graph_bad_inputs () =
  List.iter
    (fun src ->
      match Chg.Serialize.of_string src with
      | Ok _ -> Alcotest.failf "accepted %S" src
      | Error _ -> ())
    [ "{}";
      {|{"format":"other","version":1,"classes":[]}|};
      {|{"format":"cxxlookup-chg","version":99,"classes":[]}|};
      {|{"format":"cxxlookup-chg","version":1,"classes":[{"name":"A"}]}|};
      (* unknown base *)
      {|{"format":"cxxlookup-chg","version":1,"classes":[
         {"name":"A","bases":[{"class":"Z","virtual":false,
          "access":"public"}],"members":[]}]}|} ]

let test_graph_forward_reference_ok () =
  (* of_decls reorders, so serialized classes may arrive in any order *)
  let src =
    {|{"format":"cxxlookup-chg","version":1,"classes":[
       {"name":"D","bases":[{"class":"B","virtual":true,"access":"public"}],
        "members":[]},
       {"name":"B","bases":[],"members":[{"name":"m","kind":"data",
        "static":false,"virtual":false,"access":"public"}]}]}|}
  in
  match Chg.Serialize.of_string src with
  | Ok g ->
    Alcotest.(check int) "two classes" 2 (G.num_classes g);
    let cl = Chg.Closure.compute g in
    Alcotest.(check bool) "edge kind preserved" true
      (Chg.Closure.is_virtual_base cl (G.find g "B") (G.find g "D"))
  | Error e -> Alcotest.failf "should parse: %s" e

let test_lookup_preserved_through_roundtrip () =
  let g = Hiergen.Figures.fig9 () in
  match Chg.Serialize.of_string (Chg.Serialize.to_string g) with
  | Error e -> Alcotest.failf "roundtrip failed: %s" e
  | Ok g' ->
    let eng = Lookup_core.Engine.build (Chg.Closure.compute g') in
    Alcotest.(check (option string)) "E::m -> C" (Some "C")
      (Option.map (G.name g')
         (Lookup_core.Engine.resolves_to eng (G.find g' "E") "m"))

let suite =
  [ Alcotest.test_case "json value roundtrips" `Quick test_json_values;
    Alcotest.test_case "json parsing basics" `Quick test_json_parse_basics;
    Alcotest.test_case "json malformed inputs" `Quick test_json_errors;
    Alcotest.test_case "graph roundtrip: figures" `Quick
      test_graph_roundtrip_figures;
    Alcotest.test_case "graph roundtrip: rich members" `Quick
      test_graph_roundtrip_rich_members;
    Alcotest.test_case "graph bad inputs" `Quick test_graph_bad_inputs;
    Alcotest.test_case "forward references accepted" `Quick
      test_graph_forward_reference_ok;
    Alcotest.test_case "lookup preserved through roundtrip" `Quick
      test_lookup_preserved_through_roundtrip ]
