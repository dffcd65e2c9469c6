(* Rows are append-only and shared between versions (see
   {!Append_only}): [bases] and [vbases] grow by doubling, a version
   reads only its first [n] rows, and only the newest version appends.
   Rows themselves are never written after they are published. *)
type t = {
  g : Graph.t;
  n : int;
  bases : Bitset.t array;  (* bases.(y) = strict bases of y, universe [0..y] *)
  vbases : Bitset.t array;  (* vbases.(y) = virtual bases of y, universe [0..y] *)
  filled : int Atomic.t;
}

let rows_built = Atomic.make 0
let rows_computed () = Atomic.get rows_built
let empty_row = Bitset.create 0

(* Row [y] from its direct bases' rows, which are complete because ids
   are a topological order:
     bases(y)  = U_{b direct base of y} ({b} U bases(b))
     vbases(y) = U_{b -> y virtual} {b}  U  U_{b direct base of y} vbases(b)
   The second line: x is a virtual base of y iff some path x => y starts
   with a virtual edge, i.e. it is that edge itself or it reaches y
   through a direct base b of which x is already a virtual base. *)
let fill_row g ~bases ~vbases y =
  let b = Bitset.create (y + 1) and v = Bitset.create (y + 1) in
  List.iter
    (fun (e : Graph.base) ->
      Bitset.add b e.b_class;
      Bitset.union_into_prefix ~into:b bases.(e.b_class);
      (match e.b_kind with
      | Graph.Virtual -> Bitset.add v e.b_class
      | Graph.Non_virtual -> ());
      Bitset.union_into_prefix ~into:v vbases.(e.b_class))
    (Graph.bases g y);
  bases.(y) <- b;
  vbases.(y) <- v;
  Atomic.incr rows_built

let compute g =
  let n = Graph.num_classes g in
  let bases = Array.make n empty_row and vbases = Array.make n empty_row in
  for y = 0 to n - 1 do
    fill_row g ~bases ~vbases y
  done;
  { g; n; bases; vbases; filled = Atomic.make n }

let append t g =
  let n = t.n in
  if Graph.num_classes g <> n + 1 then
    invalid_arg "Closure.append: graph must have exactly one more class";
  Append_only.claim ~what:"Closure.append" t.filled n;
  let t =
    { t with g; n = n + 1; bases = Append_only.grow t.bases n empty_row;
             vbases = Append_only.grow t.vbases n empty_row }
  in
  fill_row g ~bases:t.bases ~vbases:t.vbases n;
  t

let with_graph t g =
  if Graph.num_classes g <> t.n then
    invalid_arg "Closure.with_graph: class count differs";
  { t with g }

let graph t = t.g

let row rows t y =
  if y < 0 || y >= t.n then invalid_arg "Closure: class id out of range";
  rows.(y)

let mem_row r x = x < Bitset.length r && Bitset.mem r x
let is_base t x y = mem_row (row t.bases t y) x
let is_base_or_self t x y = x = y || is_base t x y
let is_virtual_base t x y = mem_row (row t.vbases t y) x
let bases_of t y = row t.bases t y
let virtual_bases_of t y = row t.vbases t y

let derived_of t x =
  if x < 0 || x >= t.n then invalid_arg "Closure: class id out of range";
  let d = Bitset.create t.n in
  for y = x + 1 to t.n - 1 do
    if Bitset.mem t.bases.(y) x then Bitset.add d y
  done;
  d
