(** Packed verdict columns and multicore column compilation.

    The eager engine's table boxes every entry
    ([Absent | Verdict of ...] with list-spined lv sets): ~6–10 heap
    words per resolved member, pointer chasing on every query.  This
    module is the query-serving representation: a member's whole column
    is two flat [int array]s — one tagged immediate entry per class,
    plus a shared arena for the rare multi-lv verdicts — so the common
    red verdict costs one array load and no allocation to classify.

    {2 Column format}

    An entry's low 2 bits are the tag; [n] is the class count and lv
    codes map [Ω ↦ n], [Lv c ↦ c] (no class id can be [n], so the
    coding is unambiguous within a column):

    - tag 0, absent: the entry is [0].
    - tag 1, red with a singleton lv group:
      [(ldc * (n+1) + lv) << 2 | 1] — fully immediate.
    - tag 2, red with a Section-6 group: [(off << 2) | 2], arena slice
      [\[ldc; len; lv codes...\]] at [off].
    - tag 3, blue: [(off << 2) | 3], arena slice [\[len; lv codes...\]].

    Arena slices keep the canonical verdict order
    ({!Abstraction.lv_compare}: Ω first, then increasing class ids), so
    equal verdicts pack to identical bits and a whole table's encoding
    is a deterministic function of its verdicts — the property the
    parallel build's determinism contract (DESIGN.md) rests on.

    Conversion to and from the boxed engine is lossless (modulo witness
    paths, which the boxed table only carries under [~witnesses:true]).

    {2 Views and the table image}

    A column's flat sequences live either on the OCaml heap or as a
    zero-copy view over an external word buffer — a {!buf} Bigarray,
    typically memory-mapped over a snapshot file's table-image section.
    Views answer {!column_get}/{!column_color}/{!column_resolves_to}
    through the same accessors as heap columns (with bounds checks so a
    corrupt mapping cannot read outside the buffer); {!column_append}
    materializes back to the heap.  {!write_image} lays a whole table
    out position-independently (8-aligned little-endian words, offsets
    not pointers) so {!map_image} can serve it in place — the O(1)
    restore path — while {!read_image} decodes the same bytes into heap
    columns when mapping is unavailable.

    {2 Parallel compilation}

    {!build} compiles member columns on [jobs] OCaml 5 domains.  Columns
    are independent (one topological pass each over the shared read-only
    closure), distributed by an atomic cursor, and written to
    preallocated per-member slots — output is bit-identical for every
    job count and schedule. *)

(** {1 Columns} *)

type column

(** [column_classes col] is [n], the number of classes the column
    covers. *)
val column_classes : column -> int

(** [pack_column col] packs a boxed column ([None] = absent).
    @raise Invalid_argument beyond [2^30 - 1] classes (the red immediate
    must fit a 63-bit int after the 2-bit tag). *)
val pack_column : Engine.verdict option array -> column

val unpack_column : column -> Engine.verdict option array

(** [column_get col c] decodes one entry (allocates the verdict). *)
val column_get : column -> Chg.Graph.class_id -> Engine.verdict option

(** [column_color col c] classifies without allocating. *)
val column_color : column -> Chg.Graph.class_id -> [ `Absent | `Red | `Blue ]

(** [column_resolves_to col c] is the declaring class of an unambiguous
    lookup — the service fast path; no allocation. *)
val column_resolves_to : column -> Chg.Graph.class_id -> Chg.Graph.class_id option

(** [column_resolve_code col c] is the int-only classification the
    binary hot path encodes from: [-1] absent, [-2] ambiguous (blue),
    otherwise the declaring class id of an unambiguous lookup.  Zero
    allocation. *)
val column_resolve_code : column -> Chg.Graph.class_id -> int

(** [column_is_view col] is [true] when the column serves from an
    external buffer ({!map_image}) rather than the OCaml heap. *)
val column_is_view : column -> bool

(** [column_append col v] extends the column with one more class's
    verdict (the service's add_class path).  Lv/ldc codes are
    base-[n+1], so this re-encodes the packed ints directly — O(n) int
    work, no verdict decoded — and the result is bit-identical to
    [pack_column (Array.append (unpack_column col) [|v|])].  A mapped
    view materializes to the heap. *)
val column_append : column -> Engine.verdict option -> column

(** [column_bytes col] is the column's real resident size in bytes (its
    two flat arrays plus headers) — what a byte budget should charge. *)
val column_bytes : column -> int

(** [boxed_column_bytes col] is what the same column would cost boxed
    (option + verdict + list spine per entry), for packed-vs-boxed
    reporting. *)
val boxed_column_bytes : column -> int

val column_equal : column -> column -> bool

(** {2 Partial columns}

    One member's column while a lazy engine ({!Memo}) fills it: an entry
    per class in the column format, or "not computed".  Filled in any
    order; {!partial_freeze} turns a complete partial into a column
    bit-identical to {!pack_column} of the same verdicts (its arena
    slices re-laid in class order).  The partial then serves from the
    column's arrays, and {!partial_remove} copies them before its first
    write, so a frozen column is never written again.
    Not thread-safe; a frozen column is, like any column. *)

type partial

(** [partial_create n] is an [n]-class partial with nothing computed:
    entries are allocated 64 at a time on first write, so it costs
    [n/64] words until then.
    @raise Invalid_argument beyond [2^30 - 1] classes. *)
val partial_create : int -> partial

(** [partial_mem p c] — whether class [c]'s entry is computed. *)
val partial_mem : partial -> Chg.Graph.class_id -> bool

(** [partial_get p c] decodes a computed entry (allocates the verdict).
    @raise Invalid_argument when it is not computed. *)
val partial_get : partial -> Chg.Graph.class_id -> Engine.verdict option

(** [partial_set p c v] computes class [c]'s entry.  Dead arena slices
    (of removed entries) are reclaimed here, amortized O(1).
    @raise Invalid_argument when it is already computed. *)
val partial_set : partial -> Chg.Graph.class_id -> Engine.verdict option -> unit

(** [partial_remove p c] forgets a computed entry; [false] when there
    was none. *)
val partial_remove : partial -> Chg.Graph.class_id -> bool

(** [partial_clear p] forgets every entry. *)
val partial_clear : partial -> unit

(** [partial_freeze p] is the complete column (the same value on every
    call until an entry is removed).
    @raise Invalid_argument when some entry is not computed. *)
val partial_freeze : partial -> column

(** {2 Codec}

    Deterministic little-endian layout via {!Chg.Binary}: u32 class
    count, u32 arena length, entries as i64, arena as u32.
    {!read_column} validates every tag, offset and lv code and raises
    {!Chg.Binary.Corrupt} on malformed input. *)

val write_column : Chg.Binary.Writer.t -> column -> unit
val read_column : Chg.Binary.Reader.t -> column

(** [validate_column col] proves [col] well-formed — every tag, arena
    offset, slice bound and lv code — through the accessor layer, so it
    applies to decoded, image-decoded and mapped columns alike.
    @raise Chg.Binary.Corrupt on any violation. *)
val validate_column : ?what:string -> column -> unit

(** {2 The table image}

    A whole table as one position-independent payload whose word area
    can be served in place from a memory-mapped snapshot file.  Layout
    (see the implementation header for the full diagram): a
    byte-addressed prefix (u32-prefixed names blob, u32 pad length,
    zero pad), then little-endian 64-bit words — probe constant, column
    count [m], class count [n], an [m+1]-entry arena directory, [m*n]
    entry words, and the concatenated arenas.  The writer pads so the
    word area lands 8-aligned in the file; the probe word rejects
    endianness/word-size mismatches before any structural read. *)

type buf = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

(** [write_image w ~file_offset cols] appends the image payload for
    [cols] to [w], padding for a payload that will start at byte
    [file_offset] of its file so the word area is 8-aligned.
    @raise Invalid_argument when columns disagree on class count. *)
val write_image :
  Chg.Binary.Writer.t -> file_offset:int -> (string * column) list -> unit

(** [read_image r] decodes an image payload into fully validated heap
    columns — the fallback when the file cannot be mapped.
    @raise Chg.Binary.Corrupt on malformed input. *)
val read_image : Chg.Binary.Reader.t -> (string * column) list

(** [image_header r] reads just the byte-addressed prefix: the member
    names and the byte offset of the word area within the payload.
    @raise Chg.Binary.Corrupt on malformed input. *)
val image_header : Chg.Binary.Reader.t -> string array * int

(** [map_image buf ~names] builds zero-copy column views over a mapped
    word area.  Validation is O(m) — probe, dimensions, directory —
    with per-access bounds checks guarding the rest; byte integrity is
    the snapshot CRC's job.
    @raise Chg.Binary.Corrupt when the area is not a valid image. *)
val map_image : buf -> names:string array -> (string * column) list

(** {1 Tables} *)

type t

(** [build ?static_rule ?jobs ?metrics cl] compiles every member's
    packed column.  [static_rule] as in {!Engine.build}.  [jobs]
    (default [1]) is the number of domains; [1] runs inline on the
    calling domain without spawning.  The result is bit-identical for
    every [jobs] value.  [metrics] receives the merged counters of all
    worker domains ({!Metrics.merge_into}); with [jobs > 1] the
    [build] timer spans the whole parallel region (wall clock, not CPU
    time).
    @raise Invalid_argument when [jobs < 1]. *)
val build : ?static_rule:bool -> ?jobs:int -> ?metrics:Metrics.t ->
  Chg.Closure.t -> t

(** [default_jobs ()] is the [CXXLOOKUP_JOBS] environment variable when
    set to a positive integer, else
    [Domain.recommended_domain_count ()]. *)
val default_jobs : unit -> int

(** [of_engine e] packs a boxed engine's full table; [to_engine t]
    rebuilds a boxed engine (without witness paths).  Both are lossless
    on verdicts: [to_engine (of_engine e)] answers every lookup exactly
    as [e] does. *)
val of_engine : Engine.t -> t

val to_engine : t -> Engine.t

val lookup : t -> Chg.Graph.class_id -> string -> Engine.verdict option
val resolves_to : t -> Chg.Graph.class_id -> string -> Chg.Graph.class_id option

val graph : t -> Chg.Graph.t
val closure : t -> Chg.Closure.t

(** [member_universe t] is the member-name universe in interning
    (first-declaration) order — identical to the eager engine's. *)
val member_universe : t -> string array

val num_members : t -> int
val find_column : t -> string -> column option

(** [columns t] is every (member name, packed column) pair in member-id
    order. *)
val columns : t -> (string * column) list

(** [bytes t] / [boxed_bytes t] total {!column_bytes} resp.
    {!boxed_column_bytes} over all columns. *)
val bytes : t -> int

val boxed_bytes : t -> int

(** [encode t] is the table's canonical byte string (member count, then
    each name + column in member-id order) — the determinism witness:
    two builds of the same hierarchy encode byte-identically regardless
    of [jobs]. *)
val encode : t -> string
