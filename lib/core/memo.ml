(* One partial packed column per member name: the memo stores each
   verdict as the one int the compiled column will hold, so promoting a
   member ([materialize_column]) freezes the arrays it already has
   instead of copying boxed entries, and the frozen column serves both
   the memo and whoever it was handed to.  Members are numbered in
   creation order and their state kept in parallel arrays: a member's
   first query allocates its partial, a reader closure and a table
   bucket, nothing else. *)
type t = {
  cl : Chg.Closure.t;
  n : int;  (* classes *)
  static_rule : bool;
  ids : (string, int) Hashtbl.t;  (* member name -> index *)
  mutable names : string array;  (* by index; first [Hashtbl.length ids] live *)
  mutable cols : Packed.partial array;
  mutable roots : int array;
      (* external (depth-0) lookups, never internal fills — the promotion
         signal a service layer watches *)
  mutable reads : (Chg.Graph.class_id -> Engine.verdict option) array;
      (* [lookup_filling] on each member, made once: the base reader of
         every fill *)
  mutable ring : int array;
      (* fill order, for eviction: a circular queue of [index * n + c]
         keys; a key whose entry is gone is skipped *)
  mutable head : int;
  mutable queued : int;
  mutable entries : int;  (* computed entries over all members *)
  max_entries : int option;
  metrics : Metrics.t;
  mutable depth : int;  (* >0 while inside a recursive fill *)
}

let no_partial = Packed.partial_create 0
let no_read _ = None

let create ?(static_rule = true) ?(metrics = Metrics.disabled) ?max_entries cl
    =
  (match max_entries with
  | Some n when n < 1 -> invalid_arg "Memo.create: max_entries must be >= 1"
  | _ -> ());
  { cl;
    n = Chg.Graph.num_classes (Chg.Closure.graph cl);
    static_rule;
    ids = Hashtbl.create 16;
    names = Array.make 4 "";
    cols = Array.make 4 no_partial;
    roots = Array.make 4 0;
    reads = Array.make 4 no_read;
    ring = Array.make 8 0;
    head = 0;
    queued = 0;
    entries = 0;
    max_entries;
    metrics;
    depth = 0 }

let enqueue t key =
  let cap = Array.length t.ring in
  if t.queued = cap then begin
    let fresh = Array.make (2 * cap) 0 in
    for i = 0 to t.queued - 1 do
      fresh.(i) <- t.ring.((t.head + i) mod cap)
    done;
    t.ring <- fresh;
    t.head <- 0
  end;
  t.ring.((t.head + t.queued) mod Array.length t.ring) <- key;
  t.queued <- t.queued + 1

(* Evict the oldest entry still resident. *)
let rec evict_one t =
  t.queued > 0
  &&
  let key = t.ring.(t.head) in
  t.head <- (t.head + 1) mod Array.length t.ring;
  t.queued <- t.queued - 1;
  if Packed.partial_remove t.cols.(key / t.n) (key mod t.n) then begin
    t.entries <- t.entries - 1;
    true
  end
  else evict_one t

let evict t n =
  let evicted = ref 0 in
  while !evicted < n && evict_one t do
    incr evicted
  done;
  !evicted

let clear t =
  for i = 0 to Hashtbl.length t.ids - 1 do
    Packed.partial_clear t.cols.(i)
  done;
  t.head <- 0;
  t.queued <- 0;
  t.entries <- 0

let remember t i c v =
  Packed.partial_set t.cols.(i) c v;
  enqueue t ((i * t.n) + c);
  t.entries <- t.entries + 1;
  match t.max_entries with
  | Some cap when t.entries > cap -> ignore (evict_one t)
  | _ -> ()

(* Compute member [i]'s entry at [c], filling its bases first, and make
   it resident. *)
let rec miss t i c =
  Metrics.bump t.metrics t.metrics.Metrics.memo_misses;
  if t.depth > 0 then
    Metrics.bump t.metrics t.metrics.Metrics.memo_recursive_fills;
  t.depth <- t.depth + 1;
  match
    Engine.step ~metrics:t.metrics ~static_rule:t.static_rule t.cl
      t.names.(i) t.reads.(i) c
  with
  | v ->
    t.depth <- t.depth - 1;
    remember t i c v;
    v
  | exception e ->
    t.depth <- t.depth - 1;
    raise e

and lookup_filling t i c =
  if Packed.partial_mem t.cols.(i) c then begin
    Metrics.bump t.metrics t.metrics.Metrics.memo_hits;
    Packed.partial_get t.cols.(i) c
  end
  else miss t i c

(* [lookup_filling] without decoding a hit *)
let fill t i c =
  if Packed.partial_mem t.cols.(i) c then
    Metrics.bump t.metrics t.metrics.Metrics.memo_hits
  else ignore (miss t i c)

let grow a fill =
  let fresh = Array.make (2 * Array.length a) fill in
  Array.blit a 0 fresh 0 (Array.length a);
  fresh

(* member [m]'s index, made on first use *)
let member t m =
  match Hashtbl.find_opt t.ids m with
  | Some i -> i
  | None ->
    let i = Hashtbl.length t.ids in
    if i = Array.length t.names then begin
      t.names <- grow t.names "";
      t.cols <- grow t.cols no_partial;
      t.roots <- grow t.roots 0;
      t.reads <- grow t.reads no_read
    end;
    t.names.(i) <- m;
    t.cols.(i) <- Packed.partial_create t.n;
    t.reads.(i) <- lookup_filling t i;
    Hashtbl.add t.ids m i;
    i

let lookup t c m =
  let i = member t m in
  t.roots.(i) <- t.roots.(i) + 1;
  lookup_filling t i c

let root_queries t m =
  match Hashtbl.find_opt t.ids m with Some i -> t.roots.(i) | None -> 0

let materialize_column t m =
  let i = member t m in
  match t.max_entries with
  | None ->
    for c = 0 to t.n - 1 do
      fill t i c
    done;
    Packed.partial_freeze t.cols.(i)
  | Some _ ->
    (* a capped fill may evict entries of this very column: pack the
       verdicts as they come *)
    Packed.pack_column (Array.init t.n t.reads.(i))

let cached_entries t = t.entries
