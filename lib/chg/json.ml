type t =
  | Null
  | Bool of bool
  | Int of int
  | String of string
  | List of t list
  | Obj of (string * t) list

(* -- printing ----------------------------------------------------------- *)

(* [escapes.[c]] is non-zero for the bytes a JSON string must escape —
   '"', '\\' and the control bytes — so the clean path costs one load
   per byte *)
let escapes =
  String.init 256 (fun i ->
      if i < 0x20 || i = Char.code '"' || i = Char.code '\\' then '\001'
      else '\000')

let hex_digit d = "0123456789abcdef".[d]

(* Clean runs — every byte up to the next one needing an escape — are
   appended whole, so an identifier-like string costs one blit. *)
let escape_into buf s =
  Buffer.add_char buf '"';
  let n = String.length s in
  let run = ref 0 in
  for i = 0 to n - 1 do
    let c = String.unsafe_get s i in
    if String.unsafe_get escapes (Char.code c) <> '\000' then begin
      Buffer.add_substring buf s !run (i - !run);
      run := i + 1;
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\r' -> Buffer.add_string buf "\\r"
      | c ->
        Buffer.add_string buf "\\u00";
        Buffer.add_char buf (hex_digit (Char.code c lsr 4));
        Buffer.add_char buf (hex_digit (Char.code c land 15))
    end
  done;
  Buffer.add_substring buf s !run (n - !run);
  Buffer.add_char buf '"'

(* One writer for both layouts, with no per-node closures: [pretty]
   adds a newline and two spaces per [depth] level before each item and
   each closing bracket, and a space after each colon. *)
let newline buf depth =
  Buffer.add_char buf '\n';
  for _ = 1 to depth do
    Buffer.add_string buf "  "
  done

let rec write buf pretty depth = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int n -> Buffer.add_string buf (string_of_int n)
  | String s -> escape_into buf s
  | List [] -> Buffer.add_string buf "[]"
  | List l ->
    Buffer.add_char buf '[';
    items buf pretty (depth + 1) l;
    if pretty then newline buf depth;
    Buffer.add_char buf ']'
  | Obj [] -> Buffer.add_string buf "{}"
  | Obj fs ->
    Buffer.add_char buf '{';
    fields buf pretty (depth + 1) fs;
    if pretty then newline buf depth;
    Buffer.add_char buf '}'

and items buf pretty depth = function
  | [] -> ()
  | x :: xs ->
    if pretty then newline buf depth;
    write buf pretty depth x;
    if xs != [] then Buffer.add_char buf ',';
    items buf pretty depth xs

and fields buf pretty depth = function
  | [] -> ()
  | (k, v) :: fs ->
    if pretty then newline buf depth;
    escape_into buf k;
    Buffer.add_char buf ':';
    if pretty then Buffer.add_char buf ' ';
    write buf pretty depth v;
    if fs != [] then Buffer.add_char buf ',';
    fields buf pretty depth fs

let to_buffer buf j = write buf false 0 j

let to_string ?(pretty = false) j =
  let buf = Buffer.create 256 in
  write buf pretty 0 j;
  Buffer.contents buf

(* -- parsing ------------------------------------------------------------ *)

exception Parse of string * int

let hex_value c =
  match c with
  | '0' .. '9' -> Char.code c - Char.code '0'
  | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
  | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
  | _ -> -1

(* The lexer indexes [s] directly: no per-byte [char option], and a
   string without escapes is one [String.sub].  Every error is raised at
   the same offset, with the same message, as a byte-at-a-time reading
   would report. *)
let of_string s =
  let n = String.length s in
  let pos = ref 0 in
  let error msg = raise (Parse (msg, !pos)) in
  let rec skip_ws () =
    if !pos < n then
      match String.unsafe_get s !pos with
      | ' ' | '\t' | '\n' | '\r' ->
        incr pos;
        skip_ws ()
      | _ -> ()
  in
  let expect c =
    if !pos >= n then
      error (Printf.sprintf "expected '%c', found end of input" c)
    else
      let d = String.unsafe_get s !pos in
      if d = c then incr pos
      else error (Printf.sprintf "expected '%c', found '%c'" c d)
  in
  let literal word value =
    let len = String.length word in
    let rec matches i =
      i = len || (s.[!pos + i] = word.[i] && matches (i + 1))
    in
    if !pos + len <= n && matches 0 then begin
      pos := !pos + len;
      value
    end
    else error (Printf.sprintf "invalid literal (expected %s)" word)
  in
  (* the index of the first '"' or '\\' at or after [i], or [n] *)
  let rec scan i =
    if i >= n then n
    else
      match String.unsafe_get s i with
      | '"' | '\\' -> i
      | _ -> scan (i + 1)
  in
  (* the slow path: [buf] holds the decoded prefix, [!pos] is the next
     undecoded byte and [j] is [scan !pos] *)
  let rec escaped buf j =
    Buffer.add_substring buf s !pos (j - !pos);
    pos := j;
    if j >= n then error "unterminated string"
    else if s.[j] = '"' then incr pos
    else begin
      incr pos;
      if !pos >= n then error "unterminated escape";
      (match s.[!pos] with
      | '"' -> Buffer.add_char buf '"'
      | '\\' -> Buffer.add_char buf '\\'
      | '/' -> Buffer.add_char buf '/'
      | 'n' -> Buffer.add_char buf '\n'
      | 't' -> Buffer.add_char buf '\t'
      | 'r' -> Buffer.add_char buf '\r'
      | 'b' -> Buffer.add_char buf '\b'
      | 'u' ->
        incr pos;
        if !pos + 4 > n then error "truncated \\u escape";
        let d k = hex_value s.[!pos + k] in
        let d0 = d 0 and d1 = d 1 and d2 = d 2 and d3 = d 3 in
        if d0 < 0 || d1 < 0 || d2 < 0 || d3 < 0 then
          error "malformed \\u escape";
        let code = (d0 lsl 12) lor (d1 lsl 8) lor (d2 lsl 4) lor d3 in
        if code >= 128 then error "non-ASCII \\u escapes are not supported";
        Buffer.add_char buf (Char.chr code);
        pos := !pos + 3
      | c -> error (Printf.sprintf "invalid escape '\\%c'" c));
      incr pos;
      escaped buf (scan !pos)
    end
  in
  let parse_string () =
    expect '"';
    let start = !pos in
    let j = scan start in
    if j < n && s.[j] = '"' then begin
      pos := j + 1;
      String.sub s start (j - start)
    end
    else begin
      let buf = Buffer.create (j - start + 16) in
      escaped buf j;
      Buffer.contents buf
    end
  in
  let parse_int () =
    let start = !pos in
    if s.[start] = '-' then incr pos;
    while !pos < n && match s.[!pos] with '0' .. '9' -> true | _ -> false do
      incr pos
    done;
    (if !pos < n then
       match s.[!pos] with
       | '.' | 'e' | 'E' -> error "floats are not supported"
       | _ -> ());
    match int_of_string_opt (String.sub s start (!pos - start)) with
    | Some v -> v
    | None -> error "malformed number"
  in
  let rec parse_value () =
    skip_ws ();
    if !pos >= n then error "unexpected end of input";
    match s.[!pos] with
    | 'n' -> literal "null" Null
    | 't' -> literal "true" (Bool true)
    | 'f' -> literal "false" (Bool false)
    | '"' -> String (parse_string ())
    | '-' | '0' .. '9' -> Int (parse_int ())
    | '[' ->
      incr pos;
      skip_ws ();
      if !pos < n && s.[!pos] = ']' then begin
        incr pos;
        List []
      end
      else begin
        let items = ref [ parse_value () ] in
        let rec loop () =
          skip_ws ();
          if !pos < n && s.[!pos] = ',' then begin
            incr pos;
            items := parse_value () :: !items;
            loop ()
          end
          else if !pos < n && s.[!pos] = ']' then incr pos
          else error "expected ',' or ']'"
        in
        loop ();
        List (List.rev !items)
      end
    | '{' ->
      incr pos;
      skip_ws ();
      if !pos < n && s.[!pos] = '}' then begin
        incr pos;
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
          if !pos < n && s.[!pos] = ',' then begin
            incr pos;
            fields := field () :: !fields;
            loop ()
          end
          else if !pos < n && s.[!pos] = '}' then incr pos
          else error "expected ',' or '}'"
        in
        loop ();
        Obj (List.rev !fields)
      end
    | c -> error (Printf.sprintf "unexpected character '%c'" c)
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
(* -- accessors ----------------------------------------------------------- *)

let member k = function
  | Obj fields ->
    (match List.assoc_opt k fields with
    | Some v -> Ok v
    | None -> Error (Printf.sprintf "missing field %S" k))
  | _ -> Error (Printf.sprintf "expected an object with field %S" k)

let to_list = function
  | List l -> Ok l
  | _ -> Error "expected an array"

let to_int = function
  | Int n -> Ok n
  | _ -> Error "expected an integer"

let to_str = function
  | String s -> Ok s
  | _ -> Error "expected a string"

let to_bool = function
  | Bool b -> Ok b
  | _ -> Error "expected a boolean"
