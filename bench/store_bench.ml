(* STO1: durable-store start-up — cold session build vs warm snapshot
   restore.

   A cold open builds the session from the in-memory hierarchy and then
   compiles every queried member's verdict column through the memo
   engine.  A warm open reads the newest snapshot back off disk and
   installs the persisted columns directly into the table cache, so the
   serving state is ready without recomputation.  The third family adds
   a WAL tail to the warm path: recovery replays the logged mutations
   through the session's mutation calls, which is the real restart
   cost once a store has been running between compactions. *)

module G = Chg.Graph
module Families = Hiergen.Families
module Session = Service.Session

let header id title = Format.printf "@.---- %s: %s ----@." id title

let counters_json pairs =
  Telemetry.Json.Obj
    (List.map (fun (k, v) -> (k, Telemetry.Json.Int v)) pairs)

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  end
  else Sys.remove path

(* One lookup per member from the root class: with promote_threshold 1
   every column compiles, which is exactly the state a snapshot
   persists. *)
let compile_columns s g =
  let root = G.name g 0 in
  List.iter
    (fun m ->
      match Session.lookup s root m with
      | Ok _ -> ()
      | Error c -> invalid_arg ("bench session lost class " ^ c))
    (G.member_names g)

let wal_tail = 48

let run () =
  header "STO1" "session open: cold build vs snapshot restore";
  let i =
    Families.random_dag ~n:600 ~max_bases:3 ~virtual_prob:0.2
      ~declare_prob:0.25
      ~members:(List.init 24 (fun k -> Printf.sprintf "m%d" k))
      ~seed:23
  in
  let g = i.graph in
  let size = G.num_classes g + G.num_edges g in
  let members = G.member_names g in
  let config =
    { Session.default_config with
      promote_threshold = 1;
      table_max_entries = List.length members }
  in
  (* Durable state: a donor session with every column compiled,
     snapshotted into a scratch store.  The second lineage carries the
     same snapshot plus a WAL tail of add_member mutations. *)
  let dir = Filename.temp_file "cxxlookup-bench" ".store" in
  Sys.remove dir;
  let store = Store.open_dir dir in
  let donor = Session.create ~config ~name:"donor" g in
  compile_columns donor g;
  let snapshot_of name =
    { Store.Snapshot.s_session = name;
      s_epoch = 0;
      s_protocol = Service.Protocol.version;
      s_graph = g;
      s_columns = Session.compiled_columns donor }
  in
  let snapshot_bytes = Store.write_snapshot store (snapshot_of "plain") in
  ignore (Store.write_snapshot store (snapshot_of "tail"));
  for k = 1 to wal_tail do
    Store.log_mutation store ~session:"tail" ~epoch:k
      (Store.Mutation.Add_member
         { am_class = G.name g (k mod G.num_classes g);
           am_member = G.member (Printf.sprintf "w%d" k) })
  done;
  Store.sync store;
  Format.printf
    "  hierarchy: %d classes, %d member names; snapshot: %d bytes, WAL \
     tail: %d records@."
    (G.num_classes g) (List.length members) snapshot_bytes wal_tail;
  let cold_open () =
    let s = Session.create ~config ~name:"cold" g in
    compile_columns s g;
    s
  in
  let warm_open name =
    match Store.recover store name with
    | Ok (Some rv) ->
      let snap = rv.Store.rv_snapshot in
      let s =
        Session.restore ~config ~name ~epoch:snap.Store.Snapshot.s_epoch
          ~columns:snap.Store.Snapshot.s_columns
          snap.Store.Snapshot.s_graph
      in
      List.iter
        (fun r ->
          match r.Store.Wal.rc_mutation with
          | Store.Mutation.Add_class { ac_name; ac_bases; ac_members } ->
            ignore
              (Session.add_class s ~cls:ac_name ~bases:ac_bases
                 ~members:ac_members)
          | Store.Mutation.Add_member { am_class; am_member } ->
            ignore (Session.add_member s ~cls:am_class am_member))
        rv.Store.rv_replayed;
      s
    | Ok None | Error _ -> invalid_arg "bench store lost its snapshot"
  in
  ignore (cold_open ());
  ignore (warm_open "plain");
  ignore (warm_open "tail") (* warm the page cache for all three *);
  let t_cold, lat_cold = Timing.measure (fun () -> cold_open ()) in
  let t_warm, lat_warm = Timing.measure (fun () -> warm_open "plain") in
  let t_tail, lat_tail = Timing.measure (fun () -> warm_open "tail") in
  Format.printf "  %-38s %a@." "cold open (build + compile columns)"
    Timing.pp_time t_cold;
  Format.printf "  %-38s %a@." "warm open (snapshot restore)"
    Timing.pp_time t_warm;
  Format.printf "  %-38s %a@."
    (Printf.sprintf "warm open + %d-record WAL replay" wal_tail)
    Timing.pp_time t_tail;
  Format.printf "  warm speedup over cold: %.2fx@." (t_cold /. t_warm);
  let shape =
    [ ("classes", G.num_classes g);
      ("member_names", List.length members);
      ("snapshot_bytes", snapshot_bytes);
      ("wal_records", 0) ]
  in
  Scaling.record ~experiment:"STO1"
    ~family:"cold open (build + compile columns)" ~n_plus_e:size
    ~time_ns:(t_cold *. 1e9) ~latency:lat_cold
    (counters_json shape);
  Scaling.record ~experiment:"STO1" ~family:"warm open (snapshot restore)"
    ~n_plus_e:size ~time_ns:(t_warm *. 1e9) ~latency:lat_warm
    (counters_json shape);
  Scaling.record ~experiment:"STO1"
    ~family:(Printf.sprintf "warm open + %d-record WAL replay" wal_tail)
    ~n_plus_e:size ~time_ns:(t_tail *. 1e9) ~latency:lat_tail
    (counters_json
       (List.map
          (fun (k, v) -> if k = "wal_records" then (k, wal_tail) else (k, v))
          shape));
  Store.close store;
  rm_rf dir
