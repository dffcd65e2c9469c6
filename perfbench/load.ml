(* The load generator: one process, one thread, one [select] loop over
   at most two loopback connections.

   Requests are encoded before a phase starts; during the phase the loop
   only copies bytes, reads the clock and frames responses.  Responses
   are logged raw with their timestamps and checked against the oracle
   after the run, outside every timed window. *)

type framing = Line | Frame

(* A growable byte window [lo, hi) over [b]. *)
type buf = { mutable b : Bytes.t; mutable lo : int; mutable hi : int }

let buf () = { b = Bytes.create 65536; lo = 0; hi = 0 }

let reserve x n =
  if x.hi + n > Bytes.length x.b then begin
    let live = x.hi - x.lo in
    let nb =
      if live + n <= Bytes.length x.b then x.b
      else Bytes.create (max (2 * Bytes.length x.b) (live + n))
    in
    Bytes.blit x.b x.lo nb 0 live;
    x.b <- nb;
    x.lo <- 0;
    x.hi <- live
  end

let append x s =
  let n = String.length s in
  reserve x n;
  Bytes.blit_string s 0 x.b x.hi n;
  x.hi <- x.hi + n

(* What the loop remembers about a request until its response arrives. *)
type pending = {
  p_tag : int;  (** caller's request kind *)
  p_idx : int;  (** caller's index (stream position) *)
  p_due : int;  (** ns: scheduled send time (open loop) or send time *)
  p_sent : int;  (** ns: when the bytes were queued *)
  p_lo : int;  (** mutations acknowledged when sent *)
  p_framing : framing;
}

type response = {
  r_p : pending;
  r_body : string;
  r_recv : int;  (** ns *)
  r_hi : int;  (** mutations sent when the response arrived *)
}

type conn = {
  fd : Unix.file_descr;
  out : buf;
  inb : buf;
  mutable scan : int;  (** bytes of a partial line already scanned *)
  q : pending Queue.t;
}

type t = {
  conns : conn array;
  mutable acked : int;  (** mutation responses received *)
  mutable muts_sent : int;
  mutable on_response : int -> response -> unit;
  deadline : int;  (** ns: the watchdog *)
}

let connect port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  Unix.setsockopt fd Unix.TCP_NODELAY true;
  Unix.set_nonblock fd;
  { fd; out = buf (); inb = buf (); scan = 0; q = Queue.create () }

(* [acked] / [muts_sent] carry the mutation counts over a server
   restart, so epochs keep counting from where the stream is. *)
let create ?(acked = 0) ?(muts_sent = 0) ~deadline ports =
  { conns = Array.map connect ports;
    acked;
    muts_sent;
    on_response = (fun _ _ -> ());
    deadline }

let close t = Array.iter (fun c -> try Unix.close c.fd with Unix.Unix_error _ -> ()) t.conns

let flush c =
  let rec go () =
    if c.out.hi > c.out.lo then
      match Unix.single_write c.fd c.out.b c.out.lo (c.out.hi - c.out.lo) with
      | n ->
        c.out.lo <- c.out.lo + n;
        go ()
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
  in
  go ();
  if c.out.lo = c.out.hi then begin
    c.out.lo <- 0;
    c.out.hi <- 0
  end

let send t ci ~tag ~idx ~due ~framing data =
  let c = t.conns.(ci) in
  let now = Bclock.now_ns () in
  append c.out data;
  if framing = Line then append c.out "\n";
  Queue.push
    { p_tag = tag; p_idx = idx; p_due = due; p_sent = now; p_lo = t.acked;
      p_framing = framing }
    c.q;
  flush c

(* Frame every complete response at the head of [c]'s input. *)
let drain t ci c =
  let continue = ref true in
  while !continue && not (Queue.is_empty c.q) do
    let p = Queue.peek c.q in
    let x = c.inb in
    let complete =
      match p.p_framing with
      | Line ->
        let rec find i =
          if i >= x.hi then begin
            c.scan <- i - x.lo;
            None
          end
          else if Bytes.get x.b i = '\n' then Some (i - x.lo, i + 1 - x.lo)
          else find (i + 1)
        in
        find (x.lo + c.scan)
      | Frame ->
        if x.hi - x.lo < Service.Frame.header_len then None
        else
          let len = Int32.to_int (Bytes.get_int32_le x.b (x.lo + 2)) land 0xffffffff in
          let total = Service.Frame.header_len + len in
          if x.hi - x.lo >= total then Some (total, total) else None
    in
    match complete with
    | None -> continue := false
    | Some (body_len, consumed) ->
      let body = Bytes.sub_string x.b x.lo body_len in
      x.lo <- x.lo + consumed;
      c.scan <- 0;
      ignore (Queue.pop c.q);
      let r = { r_p = p; r_body = body; r_recv = Bclock.now_ns (); r_hi = t.muts_sent } in
      t.on_response ci r
  done

let read_into t ci c =
  reserve c.inb 65536;
  match Unix.read c.fd c.inb.b c.inb.hi (Bytes.length c.inb.b - c.inb.hi) with
  | 0 -> failwith "server closed the connection"
  | n ->
    c.inb.hi <- c.inb.hi + n;
    drain t ci c
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()

let outstanding t = Array.exists (fun c -> not (Queue.is_empty c.q)) t.conns

(* One [select] round, waiting at most [timeout] seconds. *)
let poll t timeout =
  if Bclock.now_ns () > t.deadline then failwith "run exceeded its time limit";
  let rd = ref [] and wr = ref [] in
  Array.iter
    (fun c ->
      if not (Queue.is_empty c.q) then rd := c.fd :: !rd;
      if c.out.hi > c.out.lo then wr := c.fd :: !wr)
    t.conns;
  match Unix.select !rd !wr [] (Float.max 0. timeout) with
  | r, w, _ ->
    Array.iteri
      (fun ci c ->
        if List.memq c.fd w then flush c;
        if List.memq c.fd r then read_into t ci c)
      t.conns
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()

let wait_all t = while outstanding t do poll t 0.05 done

(* ---- phases ------------------------------------------------------------- *)

(* An open-loop event: due offset (ns from phase start), connection,
   request bytes, and the tag/index the response is logged under. *)
type event = { e_due : int; e_conn : int; e_data : string; e_tag : int; e_idx : int }

let tag_mutation = 2

(* [open_loop t events ~log] sends each event when due — never waiting
   for responses — and logs every response.  Returns the phase's start
   time (ns) and the per-event lateness samples (µs). *)
let open_loop t events ~log =
  let late = Bclock.samples () in
  let n = Array.length events in
  t.on_response <-
    (fun _ r ->
      if r.r_p.p_tag = tag_mutation then t.acked <- t.acked + 1;
      log r);
  let t0 = Bclock.now_ns () + 1_000_000 in
  let i = ref 0 in
  while !i < n || outstanding t do
    let now = Bclock.now_ns () in
    while !i < n && t0 + events.(!i).e_due <= now do
      let e = events.(!i) in
      let due = t0 + e.e_due in
      if e.e_tag = tag_mutation then t.muts_sent <- t.muts_sent + 1;
      send t e.e_conn ~tag:e.e_tag ~idx:e.e_idx ~due ~framing:Line e.e_data;
      Bclock.add late (float_of_int (Bclock.now_ns () - due) /. 1e3);
      incr i
    done;
    let timeout =
      if !i < n then float_of_int (t0 + events.(!i).e_due - Bclock.now_ns ()) /. 1e9
      else 0.05
    in
    poll t timeout
  done;
  (t0, late)

(* [closed_loop t reqs ~framing ~dur_s ~log] keeps one request
   outstanding per connection, cycling through [reqs] (bytes, queries
   per request), until [dur_s] has passed.  Returns the queries answered
   per second in each whole [window_s] window of the phase: a median
   over windows shrugs off a burst of interference from outside. *)
let window_s = 0.25

let closed_loop t reqs ~tag ~framing ~dur_s ~log =
  let n = Array.length reqs in
  let next = ref 0 in
  let t0 = Bclock.now_ns () in
  let stop = t0 + int_of_float (dur_s *. 1e9) in
  let win_ns = int_of_float (window_s *. 1e9) in
  let windows = max 1 (int_of_float (dur_s /. window_s)) in
  let per_window = Array.make windows 0 in
  let send_next ci =
    let k = !next in
    incr next;
    send t ci ~tag ~idx:k ~due:(Bclock.now_ns ()) ~framing (fst reqs.(k mod n))
  in
  t.on_response <-
    (fun ci r ->
      let w = (r.r_recv - t0) / win_ns in
      if w < windows then per_window.(w) <- per_window.(w) + snd reqs.(r.r_p.p_idx mod n);
      log r;
      if r.r_recv < stop then send_next ci);
  Array.iteri (fun ci _ -> send_next ci) t.conns;
  wait_all t;
  let rates = Bclock.samples () in
  Array.iter (fun q -> Bclock.add rates (float_of_int q /. window_s)) per_window;
  rates

(* Synchronous calls for set-up, probes and control verbs: send every
   request on connection [ci], wait for all the answers, in order. *)
let call_many t ci ?(framing = Line) reqs =
  let got = ref [] in
  t.on_response <- (fun _ r -> got := r :: !got);
  List.iteri (fun i d -> send t ci ~tag:(-1) ~idx:i ~due:(Bclock.now_ns ()) ~framing d) reqs;
  wait_all t;
  List.rev_map (fun r -> r.r_body) !got

let call t ci ?framing req =
  match call_many t ci ?framing [ req ] with [ r ] -> r | _ -> assert false
