(** Transitive-closure information over a class hierarchy graph.

    The lookup algorithm's dominance test (paper Lemma 4 and lines [1]-[3]
    of Figure 8) requires a constant-time "is [X] a virtual base of [Y]"
    probe.  As the paper notes, a compiler needs this information anyway;
    we compute it once per graph with a bitset-based closure in
    [O(|N| * (|N| + |E|))] word operations.

    The closure is {e append-only}: class ids are a topological order, so
    row [y] (the bases and virtual bases of [y]) depends only on the rows
    of [y]'s direct bases and never changes once written.  Row [y] lives
    in universe [\[0..y\]].  {!append} grows a closure by one class with
    word-level unions; {!with_graph} re-targets it at a graph that differs
    only in members.  Every value is an immutable snapshot: versions share
    their rows, and a version reads only its own. *)

type t

(** [compute g] builds the closure tables for [g]. *)
val compute : Graph.t -> t

(** [append t g] is [t] extended by the last class of [g], computing one
    row.  [g] must be [graph t] plus one class (as
    {!Graph.append_class} builds it).  [t] itself is unchanged.
    @raise Invalid_argument when [g] does not have exactly one more
    class than [graph t], or when a row was already appended to [t]. *)
val append : t -> Graph.t -> t

(** [with_graph t g] is [t] over [g], computing no row.  [g] must have
    the same classes and edges as [graph t]; only members may differ (as
    after {!Graph.append_member}).
    @raise Invalid_argument when the class counts differ. *)
val with_graph : t -> Graph.t -> t

(** [graph t] is the graph the closure was computed from. *)
val graph : t -> Graph.t

(** [rows_computed ()] is the number of closure rows built so far by this
    process, over every closure: [compute g] builds [num_classes g] rows,
    [append] one, [with_graph] none.  A count, not a time, so tests can
    pin how much of the closure a mutation rebuilds. *)
val rows_computed : unit -> int

(** [is_base t x y] is [true] iff [x] is a (strict, possibly indirect)
    base class of [y] — i.e. there is a non-empty CHG path from [x] to
    [y].  [false] whenever [x >= y]. *)
val is_base : t -> Graph.class_id -> Graph.class_id -> bool

(** [is_base_or_self t x y] is [is_base t x y || x = y]. *)
val is_base_or_self : t -> Graph.class_id -> Graph.class_id -> bool

(** [is_virtual_base t x y] is [true] iff there is a path from [x] to [y]
    whose {e first} edge is virtual (the paper's definition of virtual
    base, Section 2).  [false] whenever [x >= y]. *)
val is_virtual_base : t -> Graph.class_id -> Graph.class_id -> bool

(** [bases_of t y] is the set of strict bases of [y], over universe
    [\[0..y\]].  Shared with [t]: do not mutate. *)
val bases_of : t -> Graph.class_id -> Bitset.t

(** [virtual_bases_of t y] is the set of virtual bases of [y], over
    universe [\[0..y\]].  Shared with [t]: do not mutate. *)
val virtual_bases_of : t -> Graph.class_id -> Bitset.t

(** [derived_of t x] is the set of classes [y] such that [x] is a strict
    base of [y], over universe [\[0..num_classes - 1\]].  Computed on
    demand from the rows in [O(|N|)]; a fresh set. *)
val derived_of : t -> Graph.class_id -> Bitset.t
