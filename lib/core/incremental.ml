(* The hierarchy itself — graph snapshot and closure rows — is the shared
   append-only closure [cl]; this module adds only the verdict rows. *)
type t = {
  static_rule : bool;
  mutable cl : Chg.Closure.t;  (* its graph is the current snapshot *)
  mutable rows : (string, Engine.verdict) Hashtbl.t array;
      (* Members[C]-keyed verdicts; grow-doubling, first [num_classes]
         are live *)
  metrics : Metrics.t;
}

let graph t = Chg.Closure.graph t.cl
let closure t = t.cl
let snapshot = graph
let num_classes t = Chg.Graph.num_classes (graph t)
let find t name = Chg.Graph.find (graph t) name

let row t c =
  if c < 0 || c >= num_classes t then invalid_arg "Incremental: bad class id";
  t.rows.(c)

(* One Figure-8 step for member [mname] at live row [id], reading the
   current verdicts of the row's direct bases.  Shared between the
   add_class path (fresh row, verdicts computed once) and the add_member
   path (existing rows whose column must be recomputed). *)
let recompute_member t id mname =
  let r = row t id in
  Metrics.bump t.metrics t.metrics.Metrics.incr_row_members;
  match
    Engine.step ~metrics:t.metrics ~static_rule:t.static_rule t.cl mname
      (fun x -> Hashtbl.find_opt (row t x) mname)
      id
  with
  | None -> Hashtbl.remove r mname
  | Some v -> Hashtbl.replace r mname v

(* The verdict row of class [id], whose closure row already exists:
   Members[C] = M[C] ∪ bases' Members, one combine per member name. *)
let fill_row t id =
  let g = graph t in
  if id >= Array.length t.rows then begin
    let fresh = Array.make (max 8 (2 * id)) (Hashtbl.create 1) in
    Array.blit t.rows 0 fresh 0 id;
    t.rows <- fresh
  end;
  t.rows.(id) <- Hashtbl.create 16;
  let member_names = Hashtbl.create 16 in
  List.iter
    (fun (m : Chg.Graph.member) -> Hashtbl.replace member_names m.m_name ())
    (Chg.Graph.members g id);
  List.iter
    (fun (b : Chg.Graph.base) ->
      Hashtbl.iter
        (fun mname _ -> Hashtbl.replace member_names mname ())
        t.rows.(b.b_class))
    (Chg.Graph.bases g id);
  Metrics.bump t.metrics t.metrics.Metrics.incr_rows;
  Metrics.bump_n t.metrics t.metrics.Metrics.incr_closure_bits
    (Chg.Bitset.cardinal (Chg.Closure.bases_of t.cl id)
     + Chg.Bitset.cardinal (Chg.Closure.virtual_bases_of t.cl id));
  Hashtbl.iter (fun mname () -> recompute_member t id mname) member_names

let of_closure ?(static_rule = true) ?(metrics = Metrics.disabled) cl =
  let t = { static_rule; cl; rows = [||]; metrics } in
  for id = 0 to num_classes t - 1 do
    fill_row t id
  done;
  t

let create ?static_rule ?metrics () =
  of_closure ?static_rule ?metrics
    (Chg.Closure.compute (Chg.Graph.empty ()))

let add_class t name ~bases ~members =
  let g = Chg.Graph.append_class (graph t) name ~bases ~members in
  t.cl <- Chg.Closure.append t.cl g;
  let id = num_classes t - 1 in
  fill_row t id;
  id

let add_member t cls (m : Chg.Graph.member) =
  let g = Chg.Graph.append_member (graph t) cls m in
  t.cl <- Chg.Closure.with_graph t.cl g;
  let c = Chg.Graph.find g cls in
  (* Only [cls] and the classes derived from it can see the new
     declaration; their ids are all > c (topological id order), so one
     increasing sweep recomputes the member's column bases-first. *)
  let affected = ref 0 in
  for j = c to num_classes t - 1 do
    if j = c || Chg.Closure.is_base t.cl c j then begin
      incr affected;
      recompute_member t j m.m_name
    end
  done;
  !affected

let lookup t c m = Hashtbl.find_opt (row t c) m

let resolves_to t c m =
  match lookup t c m with
  | Some (Engine.Red r) -> Some r.r_ldc
  | Some (Engine.Blue _) | None -> None
