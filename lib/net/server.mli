(** The networked front end for [cxxlookup-rpc/1]: a TCP /
    Unix-domain-socket JSON-lines server over a shared
    {!Service.Server.t}.

    Topology: the accept loop runs on the calling domain and hands
    connections round-robin to [workers] spawned domains; each
    connection is served by one systhread on its worker's domain,
    which reads a request, executes it, writes the response and reads
    the next.  Read verbs execute concurrently under a shared
    {!Rwlock}; mutations serialize through its exclusive side — the
    single writer path owning the session table and WAL.

    Ordering: per-connection execution is serial, so pipelined
    responses leave in request order and a single-connection
    transcript is byte-identical to stdin/stdout mode.

    Backpressure: a connection reads its next request only after
    writing the previous response, outside the lock, so a client that
    stops reading stops its own connection and TCP pushes back.  A
    global admission bound of [queue_depth] executing requests answers
    the excess with explicit [overloaded] protocol errors, never
    buffered without limit.  [max_conns] is enforced at accept: the
    excess connection receives one [overloaded] line and is closed.

    Timeouts: a connection whose client is silent — or dribbles a
    partial line (slowloris) — for [idle_timeout] seconds, or whose
    pending response sees no write progress for as long, is closed
    cleanly; the time a request spends executing is never counted.
    Lines over [max_line] bytes are discarded to their newline and
    answered [bad_request] in arrival order without killing the
    connection. *)

type addr = Tcp of string * int | Unix_path of string

type config = {
  workers : int;  (** worker domains executing requests *)
  max_conns : int;  (** connections accepted concurrently *)
  queue_depth : int;  (** global admission bound (requests in flight) *)
  idle_timeout : float;
      (** seconds a client may stay silent, dribble a partial line or
          leave a response unread *)
  max_line : int;  (** request line length bound, bytes *)
}

val default_config : config

type t

(** [create ?config srv addr] binds and listens (an ephemeral TCP port
    resolves immediately — see {!bound_addr}) but accepts nothing
    until {!run}.  Raises [Unix.Unix_error] when the bind fails and
    [Invalid_argument] on a non-positive worker count. *)
val create : ?config:config -> Service.Server.t -> addr -> t

(** The actual listening address: [Tcp] with the kernel-chosen port
    when created on port 0. *)
val bound_addr : t -> addr

val addr_string : addr -> string

(** Make a vanished peer surface as EPIPE on the write path instead of
    a process-killing SIGPIPE.  Called by {!listen_on} and the client's
    connect; idempotent. *)
val ignore_sigpipe : unit -> unit

(** [listen_on addr] binds and listens, returning the socket and the
    resolved address (ephemeral TCP ports concrete).  Shared by this
    server and the cluster layer's replication / router listeners. *)
val listen_on : addr -> Unix.file_descr * addr

(** [exclusively t f] runs [f] under the exclusive (writer) side of the
    server's verb-class lock — how the replication applier mutates
    sessions without racing the read verbs executing on worker
    domains. *)
val exclusively : t -> (unit -> 'a) -> 'a

(** [run t] spawns the worker domains and runs the accept loop on the
    calling domain until {!stop}; then it closes the listener, wakes
    every open connection, lets each finish and joins the workers. *)
val run : t -> unit

(** Signal-safe: sets a flag the accept loop polls (≤ 0.2 s latency).
    Full teardown happens inside {!run}, never in handler context. *)
val stop : t -> unit
