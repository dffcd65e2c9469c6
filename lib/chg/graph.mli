(** The Class Hierarchy Graph (CHG) of Ramalingam & Srinivasan (PLDI 1997,
    Section 2).

    Nodes denote classes; edges denote direct inheritance relations and are
    tagged virtual or non-virtual.  An edge [X -> Y] means [X] is a direct
    base class of [Y]; a class [X] is a {e base} of [Y] iff there is a
    non-empty path from [X] to [Y].

    Classes are identified by dense integer ids assigned in declaration
    order; since C++ requires a base class to be complete before it is
    inherited from, declaration order is a topological order of the CHG and
    the builder enforces this, which also guarantees acyclicity. *)

(** Kind of an inheritance edge ([class D : virtual B] vs [class D : B]). *)
type edge_kind = Virtual | Non_virtual

(** C++ access level, for members and for inheritance edges. *)
type access = Public | Protected | Private

(** Kind of a class member.  The lookup algorithm itself does not
    distinguish data from functions, but the layout/vtable substrate and
    the static-member extension (paper Section 6) do.  [Type] covers
    nested type names (typedefs, nested classes as names) and
    [Enumerator] enumeration constants — the paper: "it is also possible
    to introduce new type names and enumeration constants into the scope
    of a class.  For purposes of member lookup, these are treated exactly
    like static members." *)
type member_kind = Data | Function | Type | Enumerator

type member = {
  m_name : string;
  m_kind : member_kind;
  m_static : bool;  (** static members relax the ambiguity rule (Defn. 17) *)
  m_virtual : bool;  (** virtual member function (used by vtable building) *)
  m_access : access;
}

(** [member_is_static_like m] — [m] participates in Definition 17's
    relaxed ambiguity rule: declared [static], a nested type name, or an
    enumeration constant. *)
val member_is_static_like : member -> bool

(** A direct inheritance edge as seen from the derived class. *)
type base = { b_class : int; b_kind : edge_kind; b_access : access }

type t

(** Identifier of a class within its graph, in [0 .. num_classes - 1]. *)
type class_id = int

(** {1 Construction} *)

type error =
  | Duplicate_class of string
  | Unknown_class of string  (** mutation target does not exist *)
  | Unknown_base of { cls : string; base : string }
  | Duplicate_base of { cls : string; base : string }
  | Duplicate_member of { cls : string; member : string }
  | Cyclic_hierarchy of string list  (** a cycle, as class names *)

val pp_error : Format.formatter -> error -> unit
val error_to_string : error -> string

exception Error of error

(** {2 Persistent growth}

    Each graph is an immutable snapshot, and growing one by a class or a
    member yields a new snapshot without rebuilding the old one: the
    snapshots of a growing hierarchy share their per-class arrays, and
    each reads only its own classes.  A service publishes one snapshot
    per mutation this way.  Only the newest snapshot of a hierarchy can
    gain a class; every snapshot stays readable. *)

(** [empty ()] is the graph with no classes. *)
val empty : unit -> t

(** [append_class g name ~bases ~members] is [g] plus one class, whose id
    is [num_classes g]; [bases] and [members] as for {!add_class}.
    Amortized [O(|bases| + |members|)]; [g] is unchanged.
    @raise Error like {!add_class}.
    @raise Invalid_argument when a class was already appended to [g]. *)
val append_class :
  t ->
  string ->
  bases:(string * edge_kind * access) list ->
  members:member list ->
  t

(** [append_member g cls m] is [g] with [m] appended to the members of
    [cls].  Copies the per-class member spine (one pointer per class) and
    [cls]'s own member array; [g] is unchanged.
    @raise Error on unknown class or duplicate member name. *)
val append_member : t -> string -> member -> t

(** {2 Builder}

    Mutable builder.  Classes must be added bases-first, mirroring the C++
    requirement that a base class be complete at its point of use. *)
type builder

val create_builder : unit -> builder

(** [add_class b name ~bases ~members] declares a class.  [bases] are
    (name, kind, access) triples of previously declared classes, in
    declaration order (the order matters for subobject-graph traversal
    order, e.g. to reproduce the g++ counterexample).
    @raise Error on duplicate class, unknown or duplicate base, or
    duplicate member name within the class. *)
val add_class :
  builder ->
  string ->
  bases:(string * edge_kind * access) list ->
  members:member list ->
  class_id

(** [add_member b cls m] adds member [m] to the already-declared class
    [cls] — the mutation a resident service applies when a declaration is
    appended to an existing class body.  Ids and declaration order are
    unchanged; only snapshots frozen afterwards see the member.
    @raise Error on unknown class or duplicate member name. *)
val add_member : builder -> string -> member -> unit

(** [freeze b] produces the immutable graph, in [O(1)].  The builder may
    keep being extended afterwards; frozen graphs are snapshots. *)
val freeze : builder -> t

(** A declaration, for order-independent construction. *)
type decl = {
  d_name : string;
  d_bases : (string * edge_kind * access) list;
  d_members : member list;
}

(** [of_decls decls] topologically sorts the declarations (so forward
    references are allowed) and builds the graph.  Reports
    [Cyclic_hierarchy] when the inheritance relation has a cycle. *)
val of_decls : decl list -> (t, error) result

(** Convenience: a plain member with defaults
    ([Data], non-static, non-virtual, [Public]). *)
val member : ?kind:member_kind -> ?static:bool -> ?virtual_:bool ->
  ?access:access -> string -> member

(** {1 Accessors} *)

val num_classes : t -> int
val num_edges : t -> int

(** [name g c] is the class name of id [c]. *)
val name : t -> class_id -> string

(** [find g name] is the id of class [name].
    @raise Not_found if absent. *)
val find : t -> string -> class_id

val find_opt : t -> string -> class_id option

(** [bases g c] are the direct bases of [c] in declaration order. *)
val bases : t -> class_id -> base list

(** [derived g c] are the classes having [c] as direct base, with the
    edge kind, in declaration order of the derived classes. *)
val derived : t -> class_id -> (class_id * edge_kind) list

(** [members g c] are the members declared directly in [c] — the set
    [M[c]] of the paper. *)
val members : t -> class_id -> member list

(** [find_member g c m] is the declaration of member [m] directly in
    class [c], if any. *)
val find_member : t -> class_id -> string -> member option

(** [declares g c m] is [true] iff [m ∈ M[c]]. *)
val declares : t -> class_id -> string -> bool

(** [member_names g] is the set of all member names declared anywhere in
    the program, without duplicates, in first-declaration order — the set
    whose size is |M| in the paper's complexity bounds. *)
val member_names : t -> string list

(** [classes g] is the list of ids [0 .. num_classes-1] (a topological
    order: bases before derived). *)
val classes : t -> class_id list

val iter_classes : t -> (class_id -> unit) -> unit

(** [pp g] prints a human-readable summary of the hierarchy. *)
val pp : Format.formatter -> t -> unit
