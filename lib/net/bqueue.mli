(** A bounded blocking queue — the server's hand-off from the accept
    loop to its worker domains (one mailbox per worker).

    Hard capacity: a full queue blocks the producer.  [close] refuses
    further pushes while consumers drain what is queued, then pop
    [None]. *)

type 'a t

(** Raises [Invalid_argument] when [capacity < 1]. *)
val create : int -> 'a t

val capacity : 'a t -> int
val length : 'a t -> int

(** Blocks while full; [false] iff closed (the item is dropped). *)
val push : 'a t -> 'a -> bool

(** Never blocks; [false] if full or closed. *)
val try_push : 'a t -> 'a -> bool

(** Blocks while empty; [None] iff closed and drained. *)
val pop : 'a t -> 'a option

val close : 'a t -> unit
