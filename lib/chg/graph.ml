type edge_kind = Virtual | Non_virtual
type access = Public | Protected | Private
type member_kind = Data | Function | Type | Enumerator

type member = {
  m_name : string;
  m_kind : member_kind;
  m_static : bool;
  m_virtual : bool;
  m_access : access;
}

let member_is_static_like m =
  m.m_static || (match m.m_kind with
                | Type | Enumerator -> true
                | Data | Function -> false)

type base = { b_class : int; b_kind : edge_kind; b_access : access }
type class_id = int

(* Snapshots of a growing hierarchy share append-only backing arrays
   (see {!Append_only}): a snapshot reads only classes [0, n), and only
   the newest snapshot of a lineage appends, writing slot [n] in place.
   Written slots of [names], [base_edges] and [member_arrays] never
   change; a member change copies the [member_arrays] spine instead.  The
   one exception is [derived_rev], whose lists grow at the head on
   append: readers skip the entries of classes they do not have. *)
type t = {
  n : int;
  names : string array;
  ids : (string, int) Hashtbl.t;  (* shared; ids >= n are not this graph's *)
  base_edges : base array array;
  derived_rev : (int * edge_kind) list array;  (* newest derived first *)
  member_arrays : member array array;
  num_edges : int;
  filled : int Atomic.t;
}

type error =
  | Duplicate_class of string
  | Unknown_class of string
  | Unknown_base of { cls : string; base : string }
  | Duplicate_base of { cls : string; base : string }
  | Duplicate_member of { cls : string; member : string }
  | Cyclic_hierarchy of string list

let pp_error ppf = function
  | Duplicate_class c -> Format.fprintf ppf "class %s is declared twice" c
  | Unknown_class c -> Format.fprintf ppf "class %s is not declared" c
  | Unknown_base { cls; base } ->
    Format.fprintf ppf "class %s inherits from undeclared class %s" cls base
  | Duplicate_base { cls; base } ->
    Format.fprintf ppf "class %s lists direct base %s twice" cls base
  | Duplicate_member { cls; member } ->
    Format.fprintf ppf "class %s declares member %s twice" cls member
  | Cyclic_hierarchy cycle ->
    Format.fprintf ppf "inheritance cycle: %s"
      (String.concat " -> " cycle)

let error_to_string e = Format.asprintf "%a" pp_error e

exception Error of error

let empty () =
  { n = 0; names = [||]; ids = Hashtbl.create 16; base_edges = [||];
    derived_rev = [||]; member_arrays = [||]; num_edges = 0;
    filled = Atomic.make 0 }

let num_classes g = g.n

let live g c =
  if c < 0 || c >= g.n then invalid_arg "index out of bounds"

let find_opt g name =
  match Hashtbl.find_opt g.ids name with
  | Some id when id < g.n -> Some id
  | _ -> None

let find g name =
  match find_opt g name with Some id -> id | None -> raise Not_found

let check_members cls members =
  let seen = Hashtbl.create 8 in
  List.iter
    (fun m ->
      if Hashtbl.mem seen m.m_name then
        raise (Error (Duplicate_member { cls; member = m.m_name }));
      Hashtbl.add seen m.m_name ())
    members

let append_class g name ~bases ~members =
  if Option.is_some (find_opt g name) then raise (Error (Duplicate_class name));
  check_members name members;
  let seen_bases = Hashtbl.create 4 in
  let resolve (base_name, kind, acc) =
    match find_opt g base_name with
    | None -> raise (Error (Unknown_base { cls = name; base = base_name }))
    | Some id ->
      if Hashtbl.mem seen_bases base_name then
        raise (Error (Duplicate_base { cls = name; base = base_name }));
      Hashtbl.add seen_bases base_name ();
      { b_class = id; b_kind = kind; b_access = acc }
  in
  let resolved = Array.of_list (List.map resolve bases) in
  let id = g.n in
  Append_only.claim ~what:"Graph.append_class" g.filled id;
  let grow a fill = Append_only.grow a id fill in
  let g =
    { g with names = grow g.names ""; base_edges = grow g.base_edges [||];
             member_arrays = grow g.member_arrays [||];
             derived_rev = grow g.derived_rev [] }
  in
  g.names.(id) <- name;
  Hashtbl.replace g.ids name id;
  g.base_edges.(id) <- resolved;
  g.member_arrays.(id) <- Array.of_list members;
  Array.iter
    (fun e ->
      g.derived_rev.(e.b_class) <- (id, e.b_kind) :: g.derived_rev.(e.b_class))
    resolved;
  { g with n = id + 1; num_edges = g.num_edges + Array.length resolved }

let append_member g cls m =
  match find_opt g cls with
  | None -> raise (Error (Unknown_class cls))
  | Some c ->
    let ms = g.member_arrays.(c) in
    if Array.exists (fun m' -> String.equal m'.m_name m.m_name) ms then
      raise (Error (Duplicate_member { cls; member = m.m_name }));
    let member_arrays = Array.copy g.member_arrays in
    member_arrays.(c) <- Array.append ms [| m |];
    { g with member_arrays }

type builder = { mutable snap : t }

let create_builder () = { snap = empty () }

let add_class b name ~bases ~members =
  b.snap <- append_class b.snap name ~bases ~members;
  b.snap.n - 1

let add_member b cls m = b.snap <- append_member b.snap cls m
let freeze b = b.snap

type decl = {
  d_name : string;
  d_bases : (string * edge_kind * access) list;
  d_members : member list;
}

let of_decls decls =
  (* Topologically sort the declarations (bases first) with an explicit
     DFS so we can report a cycle as a witness path. *)
  let by_name = Hashtbl.create 16 in
  match
    List.iter
      (fun d ->
        if Hashtbl.mem by_name d.d_name then
          raise (Error (Duplicate_class d.d_name));
        Hashtbl.add by_name d.d_name d)
      decls
  with
  | exception Error e -> Result.Error e
  | () ->
    let state = Hashtbl.create 16 in
    (* state: 0 = in progress, 1 = done *)
    let order = ref [] in
    let rec visit stack name =
      match Hashtbl.find_opt state name with
      | Some 1 -> ()
      | Some _ ->
        let cycle =
          let rec take = function
            | [] -> []
            | x :: rest -> if x = name then [ x ] else x :: take rest
          in
          name :: List.rev (take stack)
        in
        raise (Error (Cyclic_hierarchy cycle))
      | None ->
        (match Hashtbl.find_opt by_name name with
        | None -> ()  (* unknown base: reported by the builder below *)
        | Some d ->
          Hashtbl.add state name 0;
          List.iter (fun (b, _, _) -> visit (name :: stack) b) d.d_bases;
          Hashtbl.replace state name 1;
          order := d :: !order)
    in
    (match List.iter (fun d -> visit [] d.d_name) decls with
    | exception Error e -> Result.Error e
    | () ->
      let b = create_builder () in
      (match
         List.iter
           (fun d ->
             ignore (add_class b d.d_name ~bases:d.d_bases ~members:d.d_members))
           (List.rev !order)
       with
      | exception Error e -> Result.Error e
      | () -> Ok (freeze b)))

let member ?(kind = Data) ?(static = false) ?(virtual_ = false)
    ?(access = Public) name =
  { m_name = name; m_kind = kind; m_static = static; m_virtual = virtual_;
    m_access = access }

let num_edges g = g.num_edges
let name g c = live g c; g.names.(c)
let bases g c = live g c; Array.to_list g.base_edges.(c)

(* Newest first, and possibly holding classes past [n]: drop those,
   then restore declaration order. *)
let derived g c =
  live g c;
  let rec drop = function
    | (d, _) :: rest when d >= g.n -> drop rest
    | l -> l
  in
  List.rev (drop g.derived_rev.(c))

let member_array g c = live g c; g.member_arrays.(c)
let members g c = Array.to_list (member_array g c)

let find_member g c m =
  Array.find_opt (fun mem -> String.equal mem.m_name m) (member_array g c)

let declares g c m = Option.is_some (find_member g c m)

let member_names g =
  let seen = Hashtbl.create 16 in
  let out = ref [] in
  for c = 0 to g.n - 1 do
    Array.iter
      (fun m ->
        if not (Hashtbl.mem seen m.m_name) then begin
          Hashtbl.add seen m.m_name ();
          out := m.m_name :: !out
        end)
      g.member_arrays.(c)
  done;
  List.rev !out

let classes g = List.init (num_classes g) Fun.id

let iter_classes g f =
  for c = 0 to num_classes g - 1 do
    f c
  done

let pp ppf g =
  iter_classes g (fun c ->
      let pp_base ppf b =
        Format.fprintf ppf "%s%s"
          (match b.b_kind with Virtual -> "virtual " | Non_virtual -> "")
          g.names.(b.b_class)
      in
      let pp_member ppf m =
        Format.fprintf ppf "%s%s%s"
          (if m.m_static then "static " else "")
          (if m.m_virtual then "virtual " else "")
          m.m_name
      in
      Format.fprintf ppf "@[<h>class %s" g.names.(c);
      (match bases g c with
      | [] -> ()
      | bs ->
        Format.fprintf ppf " : %a"
          (Format.pp_print_list
             ~pp_sep:(fun ppf () -> Format.fprintf ppf ", ")
             pp_base)
          bs);
      Format.fprintf ppf " { %a }@]@."
        (Format.pp_print_list
           ~pp_sep:(fun ppf () -> Format.fprintf ppf "; ")
           pp_member)
        (members g c))
