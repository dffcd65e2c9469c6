(** An incrementally maintained lookup table.

    The eager algorithm processes classes in topological order, and a
    class's verdicts depend only on its direct bases' verdicts — so when
    a program is processed declaration by declaration (as a compiler or
    an IDE does), each new class costs only its own row:
    [O(Members[C] * (1 + indegree))] amortized, never recomputing earlier
    classes.  The hierarchy itself — the graph snapshot and the closure
    the dominance test needs — is one append-only {!Chg.Closure.t}: an
    added class appends one closure row, an added member re-targets the
    closure at the new snapshot without computing any row.  A service can
    hand the same closure to its other engines ({!closure}).

    The table agrees with {!Engine.build} on the frozen graph after every
    insertion (property-tested). *)

type t

(** [create ?static_rule ?metrics ()] is an empty hierarchy.

    [metrics] (default {!Metrics.disabled}) counts per-row cost
    ([incr_rows] / [incr_row_members]: verdicts computed for each added
    class) and closure growth ([incr_closure_bits]: bits in the new
    row's bases and virtual-bases sets), plus the shared propagation
    units of each row's combines. *)
val create : ?static_rule:bool -> ?metrics:Metrics.t -> unit -> t

(** [of_closure ?static_rule ?metrics cl] computes the verdict rows of
    every class of [Chg.Closure.graph cl], class by class as {!add_class}
    would, but reusing [cl]'s rows instead of computing closure rows: the
    engine starts out sharing [cl].  Counters as for the same sequence of
    {!add_class} calls. *)
val of_closure : ?static_rule:bool -> ?metrics:Metrics.t -> Chg.Closure.t -> t

(** [add_class t name ~bases ~members] declares a class (bases must
    already be declared, as in C++) and computes its lookup-table row.
    @raise Chg.Graph.Error like the graph builder on ill-formed input. *)
val add_class :
  t ->
  string ->
  bases:(string * Chg.Graph.edge_kind * Chg.Graph.access) list ->
  members:Chg.Graph.member list ->
  Chg.Graph.class_id

(** [add_member t cls m] adds member [m] to the already-declared class
    [cls] and repairs the resident table: only [m]'s column can change,
    and only at [cls] and its derived classes, so one increasing sweep
    over those rows (bases-first, since ids are a topological order)
    recomputes exactly the affected entries —
    [O(affected * (1 + indegree))] combines, never the whole table.
    Returns the number of rows recomputed (the service layer reports it
    and uses it to invalidate compiled tables).
    @raise Chg.Graph.Error on unknown class or duplicate member. *)
val add_member : t -> string -> Chg.Graph.member -> int

(** [lookup t c m] — same verdicts as the eager engine. *)
val lookup : t -> Chg.Graph.class_id -> string -> Engine.verdict option

(** [resolves_to t c m] is the declaring class of an unambiguous lookup. *)
val resolves_to : t -> Chg.Graph.class_id -> string -> Chg.Graph.class_id option

(** [num_classes t] is the number of classes added so far. *)
val num_classes : t -> int

(** [find t name] is the id of a declared class.
    @raise Not_found if absent. *)
val find : t -> string -> Chg.Graph.class_id

(** [closure t] is the current closure: after every mutation, a new
    immutable value sharing the earlier rows. *)
val closure : t -> Chg.Closure.t

(** [snapshot t] is the current hierarchy as a plain graph, in [O(1)]:
    [Chg.Closure.graph (closure t)]. *)
val snapshot : t -> Chg.Graph.t
