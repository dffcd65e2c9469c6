(* Server processes and scratch directories.

   Every server is spawned from the built binary with the fixed flags
   of the benchmark, its port read from the [listening on] line it
   prints to stderr.  Live pids and scratch directories are registered
   so that every exit path — success, failure, exception, SIGINT or
   SIGTERM — kills the servers, reaps them and removes the directories:
   a stray server would distort the next run. *)

type server = { pid : int; port : int }

let live : int list ref = ref []
let scratch : string list ref = ref []

let rec rm_rf path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Unix.unlink path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let kill s =
  (try Unix.kill s.pid Sys.sigkill with Unix.Unix_error _ -> ());
  (try ignore (Unix.waitpid [] s.pid) with Unix.Unix_error _ -> ());
  live := List.filter (fun p -> p <> s.pid) !live

let cleanup () =
  List.iter (fun pid -> kill { pid; port = 0 }) !live;
  List.iter (fun d -> try rm_rf d with Unix.Unix_error _ | Sys_error _ -> ()) !scratch;
  scratch := []

(* Cleanup at exit, on SIGINT/SIGTERM, and on SIGALRM: the alarm is the
   backstop that ends a run which outlives its time limit. *)
let install_handlers ~alarm_s =
  at_exit cleanup;
  let stop _ = exit 3 in
  Sys.set_signal Sys.sigint (Sys.Signal_handle stop);
  Sys.set_signal Sys.sigterm (Sys.Signal_handle stop);
  Sys.set_signal Sys.sigalrm (Sys.Signal_handle stop);
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  ignore (Unix.alarm alarm_s)

(* A fresh directory under [root], removed on exit. *)
let fresh_dir =
  let n = ref 0 in
  fun root what ->
    incr n;
    let d = Filename.concat root (Printf.sprintf "%s-%d-%d" what (Unix.getpid ()) !n) in
    rm_rf d;
    mkdir_p d;
    scratch := d :: !scratch;
    d

let read_file path =
  try In_channel.with_open_bin path In_channel.input_all with Sys_error _ -> ""

let listening_port text =
  let key = "listening on 127.0.0.1:" in
  let kl = String.length key and n = String.length text in
  let rec find i =
    if i + kl > n then None
    else if String.sub text i kl = key then
      let j = ref (i + kl) in
      while !j < n && text.[!j] >= '0' && text.[!j] <= '9' do incr j done;
      int_of_string_opt (String.sub text (i + kl) (!j - i - kl))
    else find (i + 1)
  in
  find 0

(* [spawn ~exe ~store ~log] starts [cxxlookup serve] over [store] and
   waits (polling its stderr log every 0.5 ms) until it is listening. *)
let spawn ~exe ~store ~log =
  let args =
    [| exe; "serve"; "--listen"; "127.0.0.1:0"; "--workers"; "1"; "--jobs"; "1";
       "--store"; store; "--fsync"; "always"; "--max-line"; string_of_int (64 lsl 20) |]
  in
  let err = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let pid = Unix.create_process exe args null null err in
  Unix.close err;
  Unix.close null;
  live := pid :: !live;
  let t0 = Bclock.now_ns () in
  let rec wait () =
    match listening_port (read_file log) with
    | Some port -> { pid; port }
    | None ->
      (match Unix.waitpid [ Unix.WNOHANG ] pid with
      | 0, _ -> ()
      | _ ->
        live := List.filter (fun p -> p <> pid) !live;
        failwith ("server exited before listening: " ^ read_file log));
      if Bclock.seconds_since t0 > 60. then failwith "server did not start in 60 s";
      Unix.sleepf 0.0005;
      wait ()
  in
  wait ()

(* Peak resident set (VmHWM) in MiB. *)
let peak_rss_mb pid =
  let text = read_file (Printf.sprintf "/proc/%d/status" pid) in
  List.fold_left
    (fun acc line ->
      match String.split_on_char ':' line with
      | [ "VmHWM"; v ] ->
        (match String.split_on_char ' ' (String.trim v) with
        | kb :: _ -> float_of_string kb /. 1024.
        | [] -> acc)
      | _ -> acc)
    Float.nan (String.split_on_char '\n' text)

(* User + system CPU of [pid], in seconds (fields 14 and 15 of
   /proc/<pid>/stat, at the kernel's 100 ticks per second). *)
let cpu_s pid =
  let text = read_file (Printf.sprintf "/proc/%d/stat" pid) in
  match String.rindex_opt text ')' with
  | None -> Float.nan
  | Some i ->
    let fields =
      String.split_on_char ' ' (String.sub text (i + 2) (String.length text - i - 2))
    in
    (* fields.(0) is field 3 (state) *)
    let f k = float_of_string (List.nth fields (k - 3)) in
    (f 14 +. f 15) /. 100.

(* (steal, total) CPU ticks of the whole machine so far, from the
   first line of /proc/stat: steal is time a hypervisor gave this VM's
   CPUs to someone else. *)
let cpu_ticks () =
  match String.split_on_char '\n' (read_file "/proc/stat") with
  | line :: _ ->
    (match List.filter (( <> ) "") (String.split_on_char ' ' line) with
    | "cpu" :: fields ->
      let v = List.map (fun f -> Option.value ~default:0 (int_of_string_opt f)) fields in
      let steal = match List.nth_opt v 7 with Some x -> x | None -> 0 in
      (steal, List.fold_left ( + ) 0 v)
    | _ -> (0, 0))
  | [] -> (0, 0)

(* CPUs the runtime sees online. *)
let nproc () = Domain.recommended_domain_count ()
