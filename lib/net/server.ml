module J = Chg.Json
module P = Service.Protocol

(* The networked front end for the cxxlookup-rpc/1 JSON-lines
   protocol.

   Topology: the accept loop runs on the calling domain; [workers]
   spawned domains each own a mailbox of freshly accepted connections,
   filled round-robin.  A worker serves every connection assigned to
   it on one systhread of its own, attached to the worker's domain:
   that thread reads a complete message, executes it, writes the
   response and reads the next.  Blocking I/O releases the domain's
   runtime lock, so connections interleave within a domain while
   requests on different domains run OCaml code in parallel.

   Concurrency contract: every verb is classified by
   [Service.Protocol.read_only].  Read verbs execute under the shared
   side of one server-wide {!Rwlock} — concurrently across domains,
   against immutable packed columns — while mutations take it
   exclusive, the single-writer path owning the session table and the
   WAL.  Per-connection execution is serial, so responses leave in
   request order and a single-connection transcript is byte-identical
   to stdin/stdout mode.

   Backpressure: a connection's thread reads its next request only
   after writing the previous response, so a client that stops reading
   stops its own reads and TCP pushes back — with no queue in between.
   The write happens outside the lock and the admission bound, so a
   slow consumer holds neither.  Globally, at most [queue_depth]
   admitted requests execute at once — request [queue_depth + 1] is
   answered with an explicit [overloaded] protocol error, never
   buffered.

   Robustness: a line longer than [max_line] is discarded to its
   newline and answered [bad_request] in arrival order, without
   killing the connection.  A connection whose client stays silent —
   or dribbles a partial line (slowloris) — or reads nothing of a
   response for [idle_timeout] is closed cleanly and the timed-out
   counter ticks; time spent executing a request never counts. *)

type addr = Tcp of string * int | Unix_path of string

type config = {
  workers : int;
  max_conns : int;
  queue_depth : int;  (* global admission bound *)
  idle_timeout : float;  (* seconds: client silence, slowloris, stalled write *)
  max_line : int;  (* bytes, excluding the newline *)
}

let default_config =
  { workers = 1;
    max_conns = 64;
    queue_depth = 64;
    idle_timeout = 30.;
    max_line = 1 lsl 20 }

type t = {
  srv : Service.Server.t;
  cfg : config;
  lock : Rwlock.t;  (* verb-class lock: readers shared, mutations exclusive *)
  listen_fd : Unix.file_descr;
  bound : addr;  (* actual address — the ephemeral port resolved *)
  stop : bool Atomic.t;
  next_conn : int Atomic.t;
  conns : (int, Unix.file_descr) Hashtbl.t;  (* open sockets, for stop *)
  conns_mutex : Mutex.t;
  mailboxes : (int * Unix.file_descr) Bqueue.t array;  (* one per worker *)
}

(* ---- setup ---------------------------------------------------------- *)

let resolve_host host =
  if host = "" then Unix.inet_addr_loopback
  else
    try Unix.inet_addr_of_string host
    with Failure _ ->
      (match Unix.gethostbyname host with
      | { Unix.h_addr_list = [||]; _ } ->
        failwith (Printf.sprintf "cannot resolve host %S" host)
      | h -> h.Unix.h_addr_list.(0)
      | exception Not_found ->
        failwith (Printf.sprintf "cannot resolve host %S" host))

(* A peer that vanished (kill -9, RST) must surface as EPIPE on the
   write path, not as a process-killing SIGPIPE — the replication
   sender and every connection thread write to sockets whose peer may
   be gone. *)
let ignore_sigpipe () =
  try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
  with Invalid_argument _ | Sys_error _ -> ()

let listen_on addr =
  ignore_sigpipe ();
  match addr with
  | Tcp (host, port) ->
    let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    Unix.setsockopt fd Unix.SO_REUSEADDR true;
    Unix.bind fd (Unix.ADDR_INET (resolve_host host, port));
    Unix.listen fd 128;
    let bound =
      match Unix.getsockname fd with
      | Unix.ADDR_INET (_, p) -> Tcp (host, p)
      | _ -> addr
    in
    (fd, bound)
  | Unix_path path ->
    (try
       if (Unix.lstat path).Unix.st_kind = Unix.S_SOCK then Unix.unlink path
     with Unix.Unix_error _ -> ());
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Unix.bind fd (Unix.ADDR_UNIX path);
    Unix.listen fd 128;
    (fd, addr)

let create ?(config = default_config) srv addr =
  if config.workers < 1 then invalid_arg "Net.Server: workers must be >= 1";
  let listen_fd, bound = listen_on addr in
  { srv;
    cfg = config;
    lock = Rwlock.create ();
    listen_fd;
    bound;
    stop = Atomic.make false;
    next_conn = Atomic.make 0;
    conns = Hashtbl.create 16;
    conns_mutex = Mutex.create ();
    mailboxes =
      Array.init config.workers (fun _ ->
          Bqueue.create (config.max_conns + 1)) }

let bound_addr t = t.bound

(* The replica applier's hook: replication writes take the same
   exclusive side of the verb-class lock mutations would, so read verbs
   in flight never observe a session mid-apply. *)
let exclusively t f = Rwlock.with_write t.lock f

let addr_string = function
  | Tcp (host, port) ->
    Printf.sprintf "%s:%d" (if host = "" then "127.0.0.1" else host) port
  | Unix_path path -> path

(* ---- one thread per connection -------------------------------------- *)

(* One complete message, as {!serve_conn}'s framing delivers it. *)
type msg =
  | Line of string  (* one complete framed request line *)
  | Oversized of int  (* a discarded line and its observed length *)
  | Frame of string  (* one complete binary (1b) frame, header included *)
  | Oversized_frame of int  (* a discarded frame and its declared length *)

(* A response line: the document and its newline, encoded into one
   buffer. *)
let json_line j =
  let buf = Buffer.create 256 in
  J.to_buffer buf j;
  Buffer.add_char buf '\n';
  Buffer.contents buf

let write_all fd s =
  let n = String.length s in
  let off = ref 0 in
  while !off < n do
    off := !off + Unix.write_substring fd s !off (n - !off)
  done

(* The lock class and metric verb of a frame, from its op byte alone —
   no payload decode needed before admission. *)
let frame_read_only op =
  op = Service.Frame.op_lookup
  || op = Service.Frame.op_batch_lookup
  || op = Service.Frame.op_symbols

let frame_verb op =
  if op = Service.Frame.op_lookup then "lookup"
  else if op = Service.Frame.op_batch_lookup then "batch_lookup"
  else if op = Service.Frame.op_add_member then "mutate"
  else if op = Service.Frame.op_add_class then "mutate"
  else if op = Service.Frame.op_symbols then "symbols"
  else "invalid"

(* [answer t ~conn msg] executes one message and returns its response
   bytes.  Global admission happens here, after parsing: past
   [queue_depth] admitted requests the verb is answered [overloaded]
   through the server's reject path (so the rejection is counted,
   logged and flight-recorded).  Both the verb-class lock and the
   admission slot are released before the caller writes the response,
   so a client that stops reading holds neither. *)
let answer t ~conn msg =
  let net = Service.Server.net t.srv in
  let admit ~rejected run =
    let admitted =
      Atomic.fetch_and_add net.Service.Server.net_admitted 1
      < t.cfg.queue_depth
    in
    if not admitted then begin
      Atomic.decr net.Service.Server.net_admitted;
      rejected
        (Printf.sprintf "server at admission capacity (%d in flight); retry"
           t.cfg.queue_depth)
    end
    else
      Fun.protect
        ~finally:(fun () -> Atomic.decr net.Service.Server.net_admitted)
        run
  in
  match msg with
  | Oversized n ->
    json_line
      (Service.Server.reject ~conn t.srv ~verb:"invalid" ~id:J.Null
         P.Bad_request
         (Printf.sprintf "line exceeds %d bytes (%d read)" t.cfg.max_line n))
  | Oversized_frame n ->
    Service.Server.reject_frame ~conn t.srv ~verb:"invalid" ~id:0
      P.Bad_request
      (Printf.sprintf "frame payload exceeds %d bytes (%d declared)"
         t.cfg.max_line n)
  | Line l ->
    (match P.parse_request l with
    | Error (id, code, msg) ->
      json_line
        (Service.Server.reject ~conn t.srv ~verb:"invalid" ~id code msg)
    | Ok rq ->
      admit
        ~rejected:(fun msg ->
          json_line
            (Service.Server.reject ~conn t.srv ~verb:(P.op_string rq.P.rq_op)
               ~id:rq.P.rq_id P.Overloaded msg))
        (fun () ->
          let run () = Service.Server.handle_request ~conn t.srv rq in
          json_line
            (if P.read_only rq.P.rq_op then Rwlock.with_read t.lock run
             else Rwlock.with_write t.lock run)))
  | Frame f ->
    let op = Char.code f.[1] in
    admit
      ~rejected:(fun msg ->
        (* echo the id when the prefix survives — all the decode the
           rejection path affords *)
        let id =
          match
            Service.Frame.session_of_request
              (String.sub f Service.Frame.header_len
                 (String.length f - Service.Frame.header_len))
          with
          | Ok (id, _) -> id
          | Error _ -> 0
        in
        Service.Server.reject_frame ~conn t.srv ~verb:(frame_verb op) ~id
          P.Overloaded msg)
      (fun () ->
        let run () = Service.Server.handle_frame ~conn t.srv f in
        if frame_read_only op then Rwlock.with_read t.lock run
        else Rwlock.with_write t.lock run)

(* [serve_conn t ~conn fd] serves one connection on the calling thread:
   read a complete message, answer it, write the answer, read the next.
   Execution is serial, so pipelined responses leave in request order
   and a single-connection transcript is byte-identical to stdin mode.

   Framing, directly over the socket: at each message boundary the
   first byte chooses — 0xB1 starts a binary (1b) frame (6-byte header,
   then exactly the declared payload), anything else a JSON line up to
   its newline.  Negotiation is per message, so one connection may
   interleave framings freely.  A read chunk is consumed in runs, not
   byte by byte: a line up to its newline, a frame up to the end of its
   header or of itself, a skipped payload as far as the chunk goes.

   Max-line: a line over the bound is discarded to its newline and
   answered as one [Oversized] message; a frame declaring a payload
   over the same bound is discarded by its known length
   ([Oversized_frame]) — the connection survives both, and the error
   answers in arrival order.

   Idle / slowloris: the deadline arms at connection start and re-arms
   once a complete message has been answered and its response written,
   so only client silence counts against it — never the time a request
   spends executing — and a client dribbling bytes of a never-finished
   line or frame times out exactly like a silent one.

   Slow consumer: a client that stops reading blocks only its own
   thread, in [write], outside the lock and the admission bound; that
   thread reads nothing more from the client, so TCP pushes back.  Each
   write is bounded by [idle_timeout] ([SO_SNDTIMEO]): one that makes
   no progress for that long closes the connection as timed out. *)
let serve_conn t ~conn fd =
  let buf = Bytes.create 4096 in
  let acc = Buffer.create 256 in
  let discarding = ref false in
  let discarded = ref 0 in
  (* binary-frame state: [in_frame] accumulates into [fbuf];
     [frame_total] is the full frame length once the header is in
     (-1 before); [frame_skip] counts payload bytes of an oversized
     frame still to discard ([frame_over] its declared length) *)
  let fbuf = Buffer.create 256 in
  let in_frame = ref false in
  let frame_total = ref (-1) in
  let frame_skip = ref 0 in
  let frame_over = ref 0 in
  let deadline = ref (Unix.gettimeofday () +. t.cfg.idle_timeout) in
  let alive = ref true in
  let time_out () =
    Telemetry.Counter.incr
      (Service.Server.net t.srv).Service.Server.net_timed_out
  in
  let rearm () = deadline := Unix.gettimeofday () +. t.cfg.idle_timeout in
  let respond msg =
    let s = answer t ~conn msg in
    (try write_all fd s
     with Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) as e ->
       (* SO_SNDTIMEO expired: the peer read nothing for [idle_timeout] *)
       time_out ();
       raise e);
    rearm ()
  in
  let emit_line () =
    let line = Buffer.contents acc in
    Buffer.clear acc;
    if !discarding then begin
      let n = !discarded + String.length line in
      discarding := false;
      discarded := 0;
      respond (Oversized n)
    end
    else begin
      let line =
        (* tolerate CRLF framing from casual clients *)
        let n = String.length line in
        if n > 0 && line.[n - 1] = '\r' then String.sub line 0 (n - 1)
        else line
      in
      (* blank lines are skipped, as on stdin *)
      if String.trim line = "" then rearm () else respond (Line line)
    end
  in
  (* [frame_bytes i n] feeds [buf.[i..]] to the frame in progress, at
     most up to the end of its header (while the header is incomplete)
     or of the frame, and returns how many bytes it took *)
  let frame_bytes i n =
    let goal =
      if !frame_total < 0 then Service.Frame.header_len else !frame_total
    in
    let k = min (goal - Buffer.length fbuf) (n - i) in
    Buffer.add_subbytes fbuf buf i k;
    if !frame_total < 0 && Buffer.length fbuf = Service.Frame.header_len
    then begin
      match Service.Frame.parse_header (Buffer.contents fbuf) with
      | Error _ ->
        (* unreachable: the magic matched and the header is complete *)
        Buffer.clear fbuf;
        in_frame := false
      | Ok (_op, len) ->
        if len > t.cfg.max_line then begin
          (* discard the declared payload without buffering it *)
          Buffer.clear fbuf;
          in_frame := false;
          frame_over := len;
          frame_skip := len  (* > 0: len exceeds a positive bound *)
        end
        else frame_total := Service.Frame.header_len + len
    end;
    if !frame_total >= 0 && Buffer.length fbuf = !frame_total then begin
      let f = Buffer.contents fbuf in
      Buffer.clear fbuf;
      in_frame := false;
      frame_total := -1;
      respond (Frame f)
    end;
    k
  in
  (* [line_bytes i n] feeds [buf.[i..]] to the line in progress, up to
     and including its newline, and returns how many bytes it took *)
  let line_bytes i n =
    let rec newline j =
      if j = n || Bytes.unsafe_get buf j = '\n' then j else newline (j + 1)
    in
    let stop = newline i in
    let k = stop - i in
    if !discarding then discarded := !discarded + k
    else begin
      Buffer.add_subbytes acc buf i k;
      if Buffer.length acc > t.cfg.max_line then begin
        (* switch to discard mode: the line is already over budget,
           stop accumulating its bytes *)
        discarding := true;
        discarded := Buffer.length acc;
        Buffer.clear acc
      end
    end;
    if stop < n then begin
      emit_line ();
      k + 1
    end
    else k
  in
  (try Unix.setsockopt_float fd Unix.SO_SNDTIMEO t.cfg.idle_timeout
   with Unix.Unix_error _ -> ());
  (* a torn partial line or frame at close is dropped, never executed *)
  try
    while !alive do
      let wait = !deadline -. Unix.gettimeofday () in
      if wait <= 0. then begin
        time_out ();
        alive := false
      end
      else begin
        match Unix.select [ fd ] [] [] wait with
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
        | [], _, _ -> ()  (* re-check the deadline *)
        | _ ->
          let n = Unix.read fd buf 0 (Bytes.length buf) in
          if n = 0 then alive := false
          else
            let i = ref 0 in
            while !i < n do
              if !frame_skip > 0 then begin
                let k = min !frame_skip (n - !i) in
                frame_skip := !frame_skip - k;
                i := !i + k;
                if !frame_skip = 0 then respond (Oversized_frame !frame_over)
              end
              else if !in_frame then i := !i + frame_bytes !i n
              else if
                Buffer.length acc = 0 && (not !discarding)
                && Char.code (Bytes.get buf !i) = Service.Frame.request_magic
              then begin
                (* message boundary + 0xB1: binary framing this message *)
                in_frame := true;
                frame_total := -1;
                Buffer.clear fbuf;
                Buffer.add_char fbuf (Bytes.get buf !i);
                incr i
              end
              else i := !i + line_bytes !i n
            done
      end
    done
  with Unix.Unix_error _ -> ()

let handle_conn t ~conn fd =
  let net = Service.Server.net t.srv in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      Mutex.protect t.conns_mutex (fun () -> Hashtbl.remove t.conns conn);
      Atomic.decr net.Service.Server.net_active;
      Telemetry.Counter.incr net.Service.Server.net_closed)
    (fun () -> serve_conn t ~conn fd)

(* ---- worker domains and the accept loop ----------------------------- *)

let worker_loop t mailbox () =
  let threads = ref [] in
  let rec loop () =
    match Bqueue.pop mailbox with
    | None -> ()
    | Some (conn, fd) ->
      threads := Thread.create (fun () -> handle_conn t ~conn fd) () :: !threads;
      loop ()
  in
  loop ();
  List.iter Thread.join !threads

let stop t = Atomic.set t.stop true

let run t =
  let net = Service.Server.net t.srv in
  let workers =
    Array.map (fun mb -> Domain.spawn (worker_loop t mb)) t.mailboxes
  in
  let overload_line =
    json_line
      (P.error_response ~id:J.Null P.Overloaded
         (Printf.sprintf "connection limit reached (%d)" t.cfg.max_conns))
  in
  while not (Atomic.get t.stop) do
    match Unix.select [ t.listen_fd ] [] [] 0.2 with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | [], _, _ -> ()
    | _ ->
      (match Unix.accept t.listen_fd with
      | exception Unix.Unix_error _ -> ()
      | fd, _ ->
        (match t.bound with
        | Tcp _ ->
          (try Unix.setsockopt fd Unix.TCP_NODELAY true
           with Unix.Unix_error _ -> ())
        | Unix_path _ -> ());
        if Atomic.get net.Service.Server.net_active >= t.cfg.max_conns
        then begin
          (* refuse at the door, in-band: one overloaded line, close *)
          Telemetry.Counter.incr net.Service.Server.net_overloaded;
          (try write_all fd overload_line with Unix.Unix_error _ -> ());
          (try Unix.close fd with Unix.Unix_error _ -> ())
        end
        else begin
          let conn = Atomic.fetch_and_add t.next_conn 1 + 1 in
          Atomic.incr net.Service.Server.net_active;
          Telemetry.Counter.incr net.Service.Server.net_accepted;
          Mutex.protect t.conns_mutex (fun () ->
              Hashtbl.add t.conns conn fd);
          let mb = t.mailboxes.((conn - 1) mod Array.length t.mailboxes) in
          if not (Bqueue.push mb (conn, fd)) then (
            try Unix.close fd with Unix.Unix_error _ -> ())
        end)
  done;
  (try Unix.close t.listen_fd with Unix.Unix_error _ -> ());
  (match t.bound with
  | Unix_path path -> (try Unix.unlink path with Unix.Unix_error _ -> ())
  | Tcp _ -> ());
  (* wake every connection: a thread blocked in a read sees EOF, one
     blocked in a write sees EPIPE; workers join their threads and
     exit *)
  Mutex.protect t.conns_mutex (fun () ->
      Hashtbl.iter
        (fun _ fd ->
          try Unix.shutdown fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ())
        t.conns);
  Array.iter Bqueue.close t.mailboxes;
  Array.iter Domain.join workers
