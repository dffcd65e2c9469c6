(** The lazy, memoising variant of the lookup algorithm (paper Section 5:
    "It is easy enough to modify the algorithm into a memoising lazy
    algorithm that does not compute table entries that are unnecessary: a
    request for lookup[C,m] will recursively invoke lookup[B,m] for every
    direct base class B of C if necessary").

    Useful when a compiler resolves only a few accesses: a single query
    touches only the bases of the queried class, and results are cached so
    the total work over any query sequence never exceeds the eager
    table's.

    Each member a query touches gets one {!Packed.partial} column:
    packed entries (the compiled column's own format, so a red verdict is
    one immediate int) in 64-entry blocks allocated on first write, and a
    column-local arena for the rare multi-lv verdicts; each entry also
    costs one int in the eviction queue.  {!materialize_column} freezes
    the partial into the compiled column, and the memo then serves from
    that column.

    Long-running callers (notably the {!Service} layer) can cap residency:
    the cache is pure memoisation, so evicting any entry is always
    correct — a later query just recomputes it. *)

type t

(** [create ?static_rule ?metrics ?max_entries cl] prepares an empty cache
    over [cl].

    [max_entries] (default unbounded) caps the number of resident
    (class, member) entries; past the cap, entries are evicted oldest
    first.  Raises [Invalid_argument] if not positive.

    [metrics] (default {!Metrics.disabled}) counts cache consults
    ([memo_hits] / [memo_misses]), fills triggered from inside another
    fill ([memo_recursive_fills]: the base-class recursion, as opposed to
    root queries), and the shared propagation units (edge traversals,
    [o]-extensions, dominance probes) of each fill. *)
val create :
  ?static_rule:bool -> ?metrics:Metrics.t -> ?max_entries:int ->
  Chg.Closure.t -> t

(** [lookup t c m] resolves member [m] in class [c], computing and caching
    any base-class entries it needs.  Verdicts are identical to
    {!Engine.lookup} on the eager table.  Each call counts one root query
    of [m] (see {!root_queries}); internal base-class fills do not. *)
val lookup : t -> Chg.Graph.class_id -> string -> Engine.verdict option

(** [root_queries t m] is the number of {!lookup} calls made for member
    name [m] so far (any class).  The service layer promotes a member to a
    compiled table when this count crosses its threshold. *)
val root_queries : t -> string -> int

(** [materialize_column t m] is the full Figure-8 output column for member
    [m] — the verdict for every class, indexed by class id — already in
    the packed query-serving representation.  Fills (and caches) whatever
    entries are still missing; does {e not} count as root queries.  This
    is the promotion path from the memo engine to a compiled table.
    Uncapped, the column {e is} the memo's storage for [m] (frozen, then
    shared: a later {!evict} copies before it writes); capped, entries
    may be evicted while the column fills, so it is packed afresh. *)
val materialize_column : t -> string -> Packed.column

(** [evict t n] drops up to [n] cached entries, oldest first, returning
    how many were dropped.  Never affects correctness, only residency. *)
val evict : t -> int -> int

(** [clear t] drops every cached entry (root-query counts are kept: they
    are a workload signal, not cache state). *)
val clear : t -> unit

(** [cached_entries t] is the number of (class, member) pairs resident —
    used by tests to check laziness and by callers to watch residency. *)
val cached_entries : t -> int
