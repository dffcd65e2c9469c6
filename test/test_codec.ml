(* Tests for the codec on the lookup path: the JSON printer and lexer
   against the reference codec in [Json_reference], the verdict renderer
   against the [Format] printer it replaced, and allocation bounds for
   both. *)

module G = Chg.Graph
module Json = Chg.Json
module Engine = Lookup_core.Engine
module A = Lookup_core.Abstraction

(* ---- random JSON values and documents ------------------------------ *)

(* Bytes that matter to the codec turn up often: quotes, backslashes,
   control bytes, the characters of a [\u] escape, structure, and bytes
   past ASCII. *)
let char_gen =
  QCheck.Gen.(
    frequency
      [ (6, char_range 'a' 'z');
        ( 3,
          oneofl
            [ '"'; '\\'; '/'; ' '; 'u'; '0'; 'F'; '_'; '{'; '}'; '['; ']';
              ':'; ',' ] );
        (2, map Char.chr (int_range 0 31));
        (1, map Char.chr (int_range 127 255)) ])

let text_gen =
  QCheck.Gen.(
    frequency
      [ (4, string_size ~gen:char_gen (0 -- 12));
        ( 1,
          (* escape-shaped text, escaped once more on the way out *)
          map
            (fun (a, c) -> a ^ Printf.sprintf "\\u%04x" c)
            (pair (string_size ~gen:char_gen (0 -- 4)) (int_range 0 255)) )
      ])

let int_gen =
  QCheck.Gen.(
    frequency
      [ (4, small_signed_int); (2, int);
        (1, oneofl [ 0; max_int; min_int; 999_999_999_999_999_999 ]) ])

let json_gen =
  QCheck.Gen.(
    sized (fun size ->
        fix
          (fun self n ->
            if n = 0 then
              frequency
                [ (1, return Json.Null);
                  (1, map (fun b -> Json.Bool b) bool);
                  (2, map (fun i -> Json.Int i) int_gen);
                  (3, map (fun s -> Json.String s) text_gen) ]
            else
              frequency
                [ (2, self 0);
                  ( 1,
                    map
                      (fun l -> Json.List l)
                      (list_size (0 -- 4) (self (n / 2))) );
                  ( 1,
                    map
                      (fun l -> Json.Obj l)
                      (list_size (0 -- 4) (pair text_gen (self (n / 2)))) )
                ])
          (min size 8)))

let json_arb = QCheck.make json_gen ~print:(fun j -> Json.to_string j)

let prop_print_matches_reference =
  QCheck.Test.make ~count:1000
    ~name:"json printer = reference printer, both modes" json_arb (fun j ->
      let buf = Buffer.create 16 in
      Json.to_buffer buf j;
      Json.to_string j = Json_reference.to_string j
      && Buffer.contents buf = Json.to_string j
      && Json.to_string ~pretty:true j
         = Json_reference.to_string ~pretty:true j)

let prop_roundtrip =
  QCheck.Test.make ~count:1000
    ~name:"json roundtrip through both parsers, both modes" json_arb
    (fun j ->
      List.for_all
        (fun pretty ->
          let doc = Json.to_string ~pretty j in
          Json.of_string doc = Ok j && Json_reference.of_string doc = Ok j)
        [ false; true ])

(* Damage: overwrite, delete or insert one byte, or truncate. *)
type edit = Flip of int * char | Delete of int | Insert of int * char | Cut of int

let apply_edit doc = function
  | _ when doc = "" -> doc
  | Flip (i, c) ->
    let i = i mod String.length doc in
    String.mapi (fun k d -> if k = i then c else d) doc
  | Delete i ->
    let i = i mod String.length doc in
    String.sub doc 0 i ^ String.sub doc (i + 1) (String.length doc - i - 1)
  | Insert (i, c) ->
    let i = i mod (String.length doc + 1) in
    String.sub doc 0 i ^ String.make 1 c
    ^ String.sub doc i (String.length doc - i)
  | Cut i -> String.sub doc 0 (i mod String.length doc)

let edit_gen =
  QCheck.Gen.(
    let byte =
      frequency
        [ ( 3,
            oneofl
              [ '"'; '\\'; 'u'; '0'; 'a'; 'F'; 'g'; '_'; ','; ']'; '}'; ':';
                ' '; '.'; 'e'; '-'; '9'; 'n'; 't'; 'f'; '\n'; '\000';
                '\255' ] );
          (1, char) ]
    in
    frequency
      [ (3, map2 (fun i c -> Flip (i, c)) nat byte);
        (1, map (fun i -> Delete i) nat);
        (1, map2 (fun i c -> Insert (i, c)) nat byte);
        (1, map (fun i -> Cut i) nat) ])

let damaged_gen =
  QCheck.Gen.(
    map
      (fun ((j, pretty), edits) ->
        List.fold_left apply_edit (Json.to_string ~pretty j) edits)
      (pair (pair json_gen bool) (list_size (1 -- 3) edit_gen)))

let prop_damaged_matches_reference =
  QCheck.Test.make ~count:3000
    ~name:"damaged documents: same value or same error as the reference"
    (QCheck.make damaged_gen ~print:(Printf.sprintf "%S"))
    (fun doc -> Json.of_string doc = Json_reference.of_string doc)

(* Every prefix of a document exercising each token kind. *)
let test_prefixes () =
  let doc =
    {| { "a\"b\\c\/\n\t\r\bA" : [ -12 , 0, null, true, false, "" ],
       "k" : { } , "l" : [ ] , "big" : 123456789012345678901 } |}
  in
  for i = 0 to String.length doc do
    let d = String.sub doc 0 i in
    Alcotest.(check (result string string))
      (Printf.sprintf "prefix %d" i)
      (Result.map Json.to_string (Json_reference.of_string d))
      (Result.map Json.to_string (Json.of_string d))
  done

(* ---- the verdict renderer ------------------------------------------ *)

(* The [Format] printer [Engine.verdict_string] replaced, as it was. *)
let ref_pp_lv g ppf = function
  | A.Omega -> Format.pp_print_string ppf "Ω"
  | A.Lv c -> Format.pp_print_string ppf (G.name g c)

let ref_pp_red g ppf (r : A.red) =
  match r.A.r_lvs with
  | [ v ] -> Format.fprintf ppf "(%s, %a)" (G.name g r.A.r_ldc) (ref_pp_lv g) v
  | vs ->
    Format.fprintf ppf "(%s, {%a})" (G.name g r.A.r_ldc)
      (Format.pp_print_list
         ~pp_sep:(fun ppf () -> Format.fprintf ppf ", ")
         (ref_pp_lv g))
      vs

let ref_pp_verdict g ppf = function
  | Engine.Red r -> Format.fprintf ppf "red %a" (ref_pp_red g) r
  | Engine.Blue s ->
    Format.fprintf ppf "blue {%a}"
      (Format.pp_print_list
         ~pp_sep:(fun ppf () -> Format.fprintf ppf ", ")
         (ref_pp_lv g))
      s

let ref_render g v = Format.asprintf "%a" (ref_pp_verdict g) v

let members = [ "m"; "n"; "p" ]

let verdicts g =
  let eng = Engine.build (Chg.Closure.compute g) in
  List.concat_map
    (fun c -> List.filter_map (fun m -> Engine.lookup eng c m) members)
    (G.classes g)

let static_dag (n, vp, sp, seed) =
  (Hiergen.Families.random_static_dag ~n ~max_bases:3
     ~virtual_prob:(float_of_int vp /. 10.)
     ~declare_prob:0.4
     ~static_prob:(float_of_int sp /. 10.)
     ~members ~seed)
    .Hiergen.Families.graph

let renders_like_format g =
  List.for_all
    (fun v -> Engine.verdict_string g v = ref_render g v)
    (verdicts g)

let prop_renderer_matches_format =
  QCheck.Test.make ~count:300 ~name:"verdict_string = Format printer"
    (QCheck.make
       QCheck.Gen.(
         tup4 (int_range 1 14) (int_range 0 10) (int_range 0 10)
           (int_range 0 10000))
       ~print:(fun (n, vp, sp, seed) ->
         Printf.sprintf "n=%d vp=%d sp=%d seed=%d" n vp sp seed))
    (fun params -> renders_like_format (static_dag params))

(* A fixed sweep that must reach every verdict shape the renderer
   distinguishes, so the property above cannot pass vacuously. *)
let test_renderer_shapes () =
  let omega = ref 0 and single = ref 0 and group = ref 0 in
  let blue_multi = ref 0 and blue_omega = ref 0 in
  for seed = 0 to 199 do
    let g = static_dag (10, 5, 6, seed) in
    List.iter
      (fun v ->
        Alcotest.(check string) "renders like Format" (ref_render g v)
          (Engine.verdict_string g v);
        match v with
        | Engine.Red { A.r_lvs = [ A.Omega ]; _ } -> incr omega
        | Engine.Red { A.r_lvs = [ _ ]; _ } -> incr single
        | Engine.Red _ -> incr group
        | Engine.Blue s ->
          if List.length s > 1 then incr blue_multi;
          if List.mem A.Omega s then incr blue_omega)
      (verdicts g)
  done;
  List.iter
    (fun (what, k) ->
      if !k = 0 then Alcotest.failf "no %s verdict in the sweep" what)
    [ ("red (L, Ω)", omega); ("red (L, V)", single);
      ("red (L, {…}) static group", group); ("multi-lv blue", blue_multi);
      ("blue with Ω", blue_omega) ]

(* Shapes no hierarchy produces, and names wider than [Format]'s margin. *)
let test_renderer_edges () =
  let b = G.create_builder () in
  let long = String.make 120 'L' in
  ignore (G.add_class b "A" ~bases:[] ~members:[]);
  ignore (G.add_class b long ~bases:[] ~members:[]);
  let g = G.freeze b in
  let a = G.find g "A" and l = G.find g long in
  List.iter
    (fun v ->
      Alcotest.(check string) "renders like Format" (ref_render g v)
        (Engine.verdict_string g v))
    [ Engine.Blue []; Engine.Red { A.r_ldc = a; r_lvs = [] };
      Engine.Red { A.r_ldc = l; r_lvs = [ A.Omega; A.Lv l; A.Lv a ] };
      Engine.Blue [ A.Omega; A.Lv l; A.Lv l; A.Lv a ] ]

(* ---- allocation ---------------------------------------------------- *)

(* Minor-heap words allocated by [f ()].  [Gc.minor_words] is exact;
   a block past [Max_young_wosize] (256 words) is allocated straight in
   the major heap and is not counted, so the lexer bounds are checked on
   a value that fits the minor heap as well as on a large one. *)
let minor_words f =
  let w0 = Gc.minor_words () in
  ignore (Sys.opaque_identity (f ()));
  int_of_float (Gc.minor_words () -. w0)

let long_string_doc n = "\"" ^ String.make n 'a' ^ "\""

(* O(length / 8): the value's own words plus a constant (the parser's
   closures, the result).  The byte-at-a-time reader allocated an option
   per byte, over 2 words per byte. *)
let test_lexer_allocation () =
  List.iter
    (fun n ->
      let doc = long_string_doc n in
      let bound = (n / 8) + 128 in
      let words = minor_words (fun () -> Json.of_string doc) in
      if words > bound then
        Alcotest.failf "parsing a %d-byte string allocated %d words (bound %d)"
          n words bound;
      let reference = minor_words (fun () -> Json_reference.of_string doc) in
      if reference < 2 * n then
        Alcotest.failf "reference parser allocated only %d words for %d bytes"
          reference n)
    [ 1_000; 10_000 ]

(* Measured once on x86-64 (OCaml 5.1): 26 words for [red (C, Ω)], 31
   for [blue {Ω, A, B}]; the [Format] printer took about 420.  The bound
   leaves headroom for compiler versions, not for a return to [Format]. *)
let verdict_words_bound = 48

let test_renderer_allocation () =
  let g = Hiergen.Figures.fig9 () in
  let c name = G.find g name in
  List.iter
    (fun v ->
      let words = minor_words (fun () -> Engine.verdict_string g v) in
      if words > verdict_words_bound then
        Alcotest.failf "verdict_string %S allocated %d words (bound %d)"
          (Engine.verdict_string g v) words verdict_words_bound)
    [ Engine.Red { A.r_ldc = c "C"; r_lvs = [ A.Omega ] };
      Engine.Blue [ A.Omega; A.Lv (c "A"); A.Lv (c "B") ] ]

(* The resolved 1b batch: a warm 64-query [handle_frame] whose member
   columns all sit in the session's symbol table, so each query is one
   int-only column probe.  What it allocates is the frame itself — the
   decoded pairs, one [Ok (code, served)] per query, the codes array,
   the response bytes — and the request accounting.  Measured once on
   x86-64 (OCaml 5.1): 1 676 words.  perfbench's traced replay reports
   more per frame (~6 700): its first measuring pass also refills the
   memo and re-promotes the columns the stream's last mutations
   dropped (ROADMAP item 1). *)
let batch_frame_words_bound = 1_900

let test_frame_batch_allocation () =
  let members = List.init 16 (Printf.sprintf "m%d") in
  let n = 600 in
  let g =
    (Hiergen.Families.random_dag ~n ~max_bases:3 ~virtual_prob:0.2
       ~declare_prob:0.25 ~members ~seed:1)
      .Hiergen.Families.graph
  in
  let srv = Service.Server.create () in
  let opened =
    Service.Server.handle_line srv
      (Json.to_string
         (Json.Obj
            [ ("id", Json.Int 0); ("op", Json.String "open");
              ("session", Json.String "s");
              ("chg", Chg.Serialize.to_json g) ]))
  in
  if Json.member "ok" opened <> Ok (Json.Bool true) then
    Alcotest.failf "open failed: %s" (Json.to_string opened);
  let frame op =
    Service.Frame.encode_request
      { Service.Frame.fr_id = 1; fr_session = "s"; fr_op = op }
  in
  let k = List.length (G.member_names g) in
  (* three id lookups a member promote every column into the table and
     the symbol table *)
  for mid = 0 to k - 1 do
    for _ = 1 to 3 do
      ignore
        (Service.Server.handle_frame srv
           (frame (Service.Frame.Lookup { lk_class = n - 1; lk_member = mid })))
    done
  done;
  let batch =
    frame
      (Service.Frame.Batch_lookup
         (Array.init 64 (fun i -> ((i * 37) mod n, i mod k))))
  in
  (match
     Service.Frame.decode_response ~op:Service.Frame.op_batch_lookup
       (Service.Server.handle_frame srv batch)
   with
  | Ok (_, Service.Frame.Ok_batch _) -> ()
  | _ -> Alcotest.fail "batch did not answer Ok_batch");
  let words = minor_words (fun () -> Service.Server.handle_frame srv batch) in
  if words > batch_frame_words_bound then
    Alcotest.failf "a warm 64-query 1b batch allocated %d words (bound %d)"
      words batch_frame_words_bound

let suite =
  [ Alcotest.test_case "json: every prefix matches the reference" `Quick
      test_prefixes;
    Alcotest.test_case "verdict_string: every shape, fixed sweep" `Quick
      test_renderer_shapes;
    Alcotest.test_case "verdict_string: empty sets and long names" `Quick
      test_renderer_edges;
    Alcotest.test_case "allocation: lexing a long string" `Quick
      test_lexer_allocation;
    Alcotest.test_case "allocation: one verdict_string" `Quick
      test_renderer_allocation;
    Alcotest.test_case "allocation: a warm 64-query 1b batch" `Quick
      test_frame_batch_allocation ]
  @ List.map QCheck_alcotest.to_alcotest
      [ prop_print_matches_reference; prop_roundtrip;
        prop_damaged_matches_reference; prop_renderer_matches_format ]
