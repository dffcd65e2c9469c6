(* Reference JSON codec for the differential tests in [Test_codec]:
   [Chg.Json]'s printer and parser as first written — a closure-driven
   printer escaping one byte at a time, and a byte-at-a-time reader
   ([peek () : char option] per byte, one [Buffer] per string).  Both
   are kept verbatim except for one fix in the parser: a [\u] escape
   must be exactly four hex digits ([int_of_string_opt] alone also
   accepts OCaml's [_] digit separators).  The production codec must
   agree with them on every input: the same bytes out, and the same
   value or the same error message at the same offset in. *)

open Chg.Json

let escape_into buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\r' -> Buffer.add_string buf "\\r"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

let to_string ?(pretty = false) j =
  let buf = Buffer.create 256 in
  let indent n =
    if pretty then begin
      Buffer.add_char buf '\n';
      for _ = 1 to n do
        Buffer.add_string buf "  "
      done
    end
  in
  let rec go depth = function
    | Null -> Buffer.add_string buf "null"
    | Bool b -> Buffer.add_string buf (if b then "true" else "false")
    | Int n -> Buffer.add_string buf (string_of_int n)
    | String s -> escape_into buf s
    | List [] -> Buffer.add_string buf "[]"
    | List items ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i item ->
          if i > 0 then Buffer.add_char buf ',';
          indent (depth + 1);
          go (depth + 1) item)
        items;
      indent depth;
      Buffer.add_char buf ']'
    | Obj [] -> Buffer.add_string buf "{}"
    | Obj fields ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char buf ',';
          indent (depth + 1);
          escape_into buf k;
          Buffer.add_string buf (if pretty then ": " else ":");
          go (depth + 1) v)
        fields;
      indent depth;
      Buffer.add_char buf '}'
  in
  go 0 j;
  Buffer.contents buf

(* -- parsing ------------------------------------------------------------ *)

exception Parse of string * int

let of_string s =
  let n = String.length s in
  let pos = ref 0 in
  let error msg = raise (Parse (msg, !pos)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
      advance ();
      skip_ws ()
    | Some _ | None -> ()
  in
  let expect c =
    match peek () with
    | Some d when d = c -> advance ()
    | Some d -> error (Printf.sprintf "expected '%c', found '%c'" c d)
    | None -> error (Printf.sprintf "expected '%c', found end of input" c)
  in
  let literal word value =
    if
      !pos + String.length word <= n
      && String.sub s !pos (String.length word) = word
    then begin
      pos := !pos + String.length word;
      value
    end
    else error (Printf.sprintf "invalid literal (expected %s)" word)
  in
  let is_hex = function
    | '0' .. '9' | 'a' .. 'f' | 'A' .. 'F' -> true
    | _ -> false
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec loop () =
      match peek () with
      | None -> error "unterminated string"
      | Some '"' -> advance ()
      | Some '\\' ->
        advance ();
        (match peek () with
        | Some '"' -> Buffer.add_char buf '"'; advance (); loop ()
        | Some '\\' -> Buffer.add_char buf '\\'; advance (); loop ()
        | Some '/' -> Buffer.add_char buf '/'; advance (); loop ()
        | Some 'n' -> Buffer.add_char buf '\n'; advance (); loop ()
        | Some 't' -> Buffer.add_char buf '\t'; advance (); loop ()
        | Some 'r' -> Buffer.add_char buf '\r'; advance (); loop ()
        | Some 'b' -> Buffer.add_char buf '\b'; advance (); loop ()
        | Some 'u' ->
          advance ();
          if !pos + 4 > n then error "truncated \\u escape";
          let hex = String.sub s !pos 4 in
          (* the fix: exactly four hex digits *)
          (match
             if String.for_all is_hex hex then int_of_string_opt ("0x" ^ hex)
             else None
           with
          | Some code when code < 128 ->
            Buffer.add_char buf (Char.chr code);
            pos := !pos + 4;
            loop ()
          | Some _ -> error "non-ASCII \\u escapes are not supported"
          | None -> error "malformed \\u escape")
        | Some c -> error (Printf.sprintf "invalid escape '\\%c'" c)
        | None -> error "unterminated escape")
      | Some c ->
        Buffer.add_char buf c;
        advance ();
        loop ()
    in
    loop ();
    Buffer.contents buf
  in
  let parse_int () =
    let start = !pos in
    if peek () = Some '-' then advance ();
    let rec digits () =
      match peek () with
      | Some ('0' .. '9') ->
        advance ();
        digits ()
      | Some ('.' | 'e' | 'E') -> error "floats are not supported"
      | Some _ | None -> ()
    in
    digits ();
    match int_of_string_opt (String.sub s start (!pos - start)) with
    | Some v -> v
    | None -> error "malformed number"
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | None -> error "unexpected end of input"
    | Some 'n' -> literal "null" Null
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some '"' -> String (parse_string ())
    | Some ('-' | '0' .. '9') -> Int (parse_int ())
    | Some '[' ->
      advance ();
      skip_ws ();
      if peek () = Some ']' then begin
        advance ();
        List []
      end
      else begin
        let items = ref [ parse_value () ] in
        let rec loop () =
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            items := parse_value () :: !items;
            loop ()
          | Some ']' -> advance ()
          | _ -> error "expected ',' or ']'"
        in
        loop ();
        List (List.rev !items)
      end
    | Some '{' ->
      advance ();
      skip_ws ();
      if peek () = Some '}' then begin
        advance ();
        Obj []
      end
      else begin
        let field () =
          skip_ws ();
          let k = parse_string () in
          skip_ws ();
          expect ':';
          let v = parse_value () in
          (k, v)
        in
        let fields = ref [ field () ] in
        let rec loop () =
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            fields := field () :: !fields;
            loop ()
          | Some '}' -> advance ()
          | _ -> error "expected ',' or '}'"
        in
        loop ();
        Obj (List.rev !fields)
      end
    | Some c -> error (Printf.sprintf "unexpected character '%c'" c)
  in
  match
    let v = parse_value () in
    skip_ws ();
    if !pos <> n then error "trailing garbage";
    v
  with
  | v -> Ok v
  | exception Parse (msg, at) ->
    Error (Printf.sprintf "JSON error at offset %d: %s" at msg)
