type lv = Omega | Lv of Chg.Graph.class_id
type red = { r_ldc : Chg.Graph.class_id; r_lvs : lv list }

let o v x kind =
  match v with
  | Lv _ -> v
  | Omega ->
    (match kind with Chg.Graph.Virtual -> Lv x | Chg.Graph.Non_virtual -> Omega)

let lv_equal a b =
  match (a, b) with
  | Omega, Omega -> true
  | Lv x, Lv y -> x = y
  | Omega, Lv _ | Lv _, Omega -> false

let lv_compare a b =
  match (a, b) with
  | Omega, Omega -> 0
  | Omega, Lv _ -> -1
  | Lv _, Omega -> 1
  | Lv x, Lv y -> compare x y

(* [o] only rewrites Ω, and a sorted deduped list carries Ω at most once,
   at its head.  So extending a whole blue set is the identity unless the
   edge is virtual and Ω is present, in which case Ω becomes [Lv x]: a
   single ordered insertion into the (still sorted) Lv tail. *)
let extend_blue s x kind =
  match (s, kind) with
  | Omega :: rest, Chg.Graph.Virtual ->
    let rec insert = function
      | [] -> [ Lv x ]
      | Lv y :: _ as l when y > x -> Lv x :: l
      | (Lv y :: _) as l when y = x -> l
      | hd :: tl -> hd :: insert tl
    in
    insert rest
  | _ -> s

(* A red group's lvs are sorted and deduplicated like a blue set, so
   they extend the same way; an unchanged group (a non-virtual edge, or
   no Ω in it) is shared, not copied. *)
let extend_red r x kind =
  let lvs = extend_blue r.r_lvs x kind in
  if lvs == r.r_lvs then r else { r with r_lvs = lvs }

type vbase = Chg.Graph.class_id -> Chg.Graph.class_id -> bool

let dominates1 vbase (l1, v1) (_l2, v2) =
  (match v2 with
  | Lv x -> vbase x l1
  | Omega -> false)
  || (lv_equal v1 v2 && v1 <> Omega)

let dominates_blue vbase (l, vs) b =
  match b with
  | Lv x -> vbase x l || List.exists (lv_equal b) vs
  | Omega -> false

let abstract_path p =
  { r_ldc = Subobject.Path.ldc p;
    r_lvs =
      [ (match Subobject.Path.least_virtual p with
        | None -> Omega
        | Some c -> Lv c) ] }

let lv_name g = function Omega -> "Ω" | Lv c -> Chg.Graph.name g c

let pp_lv g ppf v = Format.pp_print_string ppf (lv_name g v)

