(** Append-only arrays shared by the snapshots of one growing value.

    A snapshot reads the first [n] slots of its backing arrays.  The
    lineage's [filled] counter, shared by every snapshot of it, counts
    the slots written so far.  Only the newest snapshot (the one whose
    [n] equals [filled]) may append: it {!claim}s slot [n], then writes it
    into arrays that {!grow} has made room in.  Written slots never
    change, so older snapshots keep reading what they read before. *)

(** [claim ~what filled n] takes slot [n] of the lineage counted by
    [filled].
    @raise Invalid_argument naming [what] when slot [n] is already
    taken, i.e. when the snapshot appending is not the newest. *)
val claim : what:string -> int Atomic.t -> int -> unit

(** [grow a n fill] is [a] when it has room for slot [n], else a copy of
    its first [n] slots with doubled capacity, padded with [fill]. *)
val grow : 'a array -> int -> 'a -> 'a array
