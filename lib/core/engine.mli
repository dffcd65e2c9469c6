(** The member lookup algorithm of Ramalingam & Srinivasan — Figure 8 of
    the paper, eagerly tabulated.

    One pass over the classes in topological order (bases first) computes,
    for every class [C] and member name [m] contained in a [C] object, a
    verdict:

    - [Red (L, Vs)] — the lookup is unambiguous and resolves to a member
      declared in class [L]; [Vs] are the [leastVirtual] abstractions of
      the winning definition paths, kept so that classes derived from [C]
      can run the constant-time dominance test of Lemma 4.  [Vs] is a
      singleton except when the Section 6 static-member rule merged
      several same-ldc subobjects into one resolution group (see
      {!Abstraction.red}).
    - [Blue S] — the lookup is ambiguous; [S] abstracts the set of
      definitions that created the ambiguity and must keep flowing to
      derived classes (the paper's key observation: a blue definition can
      never win, but it can {e prevent} a red definition from winning —
      see Figure 5's [bar] example).

    Complexity (paper Section 5): building the whole table is
    [O(|M| * |N| * (|N| + |E|))] in general and
    [O((|M| + |N|) * (|N| + |E|))] when every lookup is unambiguous, with
    [|M|] member names, [|N|] classes, [|E|] inheritance edges; a single
    member's column is [O(|N| * (|N| + |E|))] resp. [O(|N| + |E|)]. *)

type verdict =
  | Red of Abstraction.red
  | Blue of Abstraction.lv list
      (** sorted by {!Abstraction.lv_compare}, without duplicates *)

type t

(** [build ?static_rule ?witnesses cl] runs the algorithm over every
    member name of the program.

    [static_rule] (default [true]) enables the Section 6 extension: two
    definitions in distinct subobjects with the same least derived class
    do not conflict when the member is declared [static] there.

    [witnesses] (default [false]) additionally records, for every red
    verdict, a full CHG definition path (the paper's
    [(ldc, leastVirtual, path)] triple) — compilers want the path to
    generate code; it does not change the complexity since at most one red
    definition crosses each edge.

    [metrics] (default {!Metrics.disabled}) counts the pass's unit
    operations — edge traversals, [o]-extensions, Lemma-4 dominance
    probes, verdict colors — times the build, and (when the bag was
    created with [~trace:true]) records the Figure-8 propagation as a
    replayable event stream: [visit] per class in topological order,
    [declare] for lines [11]-[12] kills, [flow] per verdict pushed
    through an edge, [verdict] per combine result. *)
val build :
  ?static_rule:bool -> ?witnesses:bool -> ?metrics:Metrics.t ->
  Chg.Closure.t -> t

(** [build_member ?static_rule ?witnesses ?metrics cl m] runs the
    algorithm for the single member name [m] — the per-member column, in
    [O(|N| + |E|)] when no lookup of [m] is ambiguous.  With [metrics],
    [edge_traversals] counts exactly the units of that bound (the
    telemetry property tests assert it). *)
val build_member :
  ?static_rule:bool -> ?witnesses:bool -> ?metrics:Metrics.t ->
  Chg.Closure.t -> string -> t

(** [lookup t c m] is the verdict for member [m] in class [c], or [None]
    when no subobject of [c] contains a member [m] (or [t] was built for a
    different single member). *)
val lookup : t -> Chg.Graph.class_id -> string -> verdict option

(** [witness t c m] is a full definition path for a red verdict, when [t]
    was built with [~witnesses:true]: a CHG path [p] with
    [Path.mdc p = c] and [Path.ldc p] the resolving class.  For plain
    (singleton-group) resolutions [Path.key p] names the resolved
    subobject; for static-rule groups it names one of the group's
    subobjects, which is sufficient for code generation since a static
    member is a single entity regardless of the subobject. *)
val witness : t -> Chg.Graph.class_id -> string -> Subobject.Path.t option

(** [resolves_to t c m] is the declaring class of an unambiguous lookup. *)
val resolves_to : t -> Chg.Graph.class_id -> string -> Chg.Graph.class_id option

(** [members t c] are the member-name ids contained in a [c] object —
    the paper's Members[C] — as names. *)
val members : t -> Chg.Graph.class_id -> string list

(** [graph t] / [closure t] give back the inputs. *)
val graph : t -> Chg.Graph.t
val closure : t -> Chg.Closure.t

(** [agrees_with_spec t ~spec_verdict c m] checks an engine verdict
    against the executable specification ({!Subobject.Spec}): resolved
    verdicts must name the same least-derived class and [leastVirtual];
    both must agree on ambiguity / absence.  Used by the test oracle. *)
val agrees_with_spec :
  t -> spec_verdict:Subobject.Spec.verdict -> Chg.Graph.class_id -> string
  -> bool

(** [verdict_string g v] renders a verdict: [red (L, V)],
    [red (L, {V1, V2})] for a Section-6 static group, [blue {V1, V2}],
    with [Ω] for the non-virtual abstraction.  The only renderer:
    [pp_verdict] prints exactly this string. *)
val verdict_string : Chg.Graph.t -> verdict -> string

val pp_verdict : Chg.Graph.t -> Format.formatter -> verdict -> unit

(**/**)

(** Internal: [step ?metrics ~static_rule cl m verdict_of c] is one lazy
    Figure-8 step — member [m]'s verdict at class [c] of
    [Chg.Closure.graph cl] — reading the verdicts of [c]'s direct bases
    through [verdict_of] (a memo's recursive fill, an incremental row, a
    packed column).  Counts declared kills, edge traversals,
    [o]-extensions, dominance probes, verdict colors and red→blue
    demotions into [metrics].  The one combine shared by {!Memo},
    {!Incremental} and the service's column extension; not part of the
    stable API. *)
val step :
  ?metrics:Metrics.t ->
  static_rule:bool ->
  Chg.Closure.t ->
  string ->
  (Chg.Graph.class_id -> verdict option) ->
  Chg.Graph.class_id ->
  verdict option

(** Internal: [blue_union s1 s2] merges two blue abstraction sets.  Both
    inputs must be sorted by {!Abstraction.lv_compare} and deduplicated
    (the Blue representation invariant); the result is their sorted,
    deduplicated union in one linear pass. *)
val blue_union : Abstraction.lv list -> Abstraction.lv list -> Abstraction.lv list

(** Internal: the member-name universe of the table, in interning
    (first-declaration) order — member id [i] is [member_universe t).(i)]. *)
val member_universe : t -> string array

(** Internal: [column t m] is member [m]'s full output column indexed by
    class id ([None] where no subobject contains [m]). *)
val column : t -> string -> verdict option array

(** Internal: rebuild an engine from per-member columns over [cl] —
    the inverse of {!column} applied over {!member_universe}; used by
    {!Packed.to_engine}.  Witness paths are not representable in columns,
    so the result behaves like a [~witnesses:false] build. *)
val of_columns :
  Chg.Closure.t -> names:string array -> columns:verdict option array array
  -> t

(**/**)
