(* The workloads and their seeded request streams.

   A stream is a pure function of (workload, seed, seconds): the
   hierarchy, every request of every phase, and the order requests are
   due in.  The server only ever sees the generated requests. *)

module G = Chg.Graph
module J = Chg.Json
module M = Store.Mutation

type workload = Point | Batch | Edit

let all = [ Point; Batch; Edit ]

let name = function Point -> "point" | Batch -> "batch" | Edit -> "edit"

let of_name s = List.find_opt (fun w -> name w = s) all

let tag = function Point -> 1 | Batch -> 2 | Edit -> 3

(* The session every request addresses. *)
let session = "bench"

(* A query names the class by graph id (ids are declaration order, so
   the same on both sides of the wire) and the member by name. *)
type query = { cls : int; mem : string }

type codec = Json | Frame

type phase_kind =
  | Open_loop of {
      lookups : query array;  (** lookup [i] is due at [i / lookup_rate] *)
      lookup_rate : float;
      lookup_conns : int array;  (** lookup [i] goes to [conns.(i mod len)] *)
      mutations : M.t array;  (** mutation [j] due at [j / mutate_rate], conn 0 *)
      mutate_rate : float;
      first_mutation : int;  (** stream index of [mutations.(0)] *)
      latency : bool;  (** lookups count toward lookup_p50/p99 *)
    }
  | Closed of { codec : codec; requests : query array array }
      (** one request outstanding per connection; the cycle repeats
          until the phase's time is up *)

type phase = { label : string; round : int; dur_s : float; kind : phase_kind }

type t = {
  workload : workload;
  seed : int;
  seconds : int;
  graph : G.t;  (** the hierarchy the [open] request carries *)
  names : string array;
      (** member names in interning order: the initial names in
          first-declaration order, then fresh names as mutations add
          them — the server's member ids *)
  mutations : M.t array;  (** every mutation, in stream order *)
  probes : query array;  (** set-up and recovery probes *)
  phases : phase list;
}

let classes_of = function Point | Edit -> 1000 | Batch -> 2400
let members_of = function Point | Edit -> 24 | Batch -> 48

let hierarchy w ~seed =
  (Hiergen.Families.random_dag ~n:(classes_of w) ~max_bases:3
     ~virtual_prob:0.2 ~declare_prob:0.25
     ~members:(List.init (members_of w) (Printf.sprintf "m%d"))
     ~seed:((seed * 8) + tag w))
    .Hiergen.Families.graph

(* The phase plan: (label, share of the run, shape).  Shares sum to 1.
   A run makes [rounds] passes over the plan, each phase taking its
   share / [rounds] of the time, so that every metric samples the whole
   run and a burst of interference from other tenants of the host
   cannot fall on one metric alone. *)
let rounds = 4

type plan =
  | P_open of { rate : float; mut_rate : float; latency : bool }
  | P_closed of { codec : codec; batch : int }

let plan = function
  | Point ->
    [ ("open", 0.40, P_open { rate = 4000.; mut_rate = 0.; latency = true });
      ("closed_json", 0.15, P_closed { codec = Json; batch = 1 });
      ("closed_1b", 0.15, P_closed { codec = Frame; batch = 1 });
      ("edit_tail", 0.30,
       P_open { rate = 1000.; mut_rate = 20.; latency = false }) ]
  | Batch ->
    [ ("closed_json", 0.25, P_closed { codec = Json; batch = 64 });
      ("closed_1b", 0.25, P_closed { codec = Frame; batch = 64 });
      ("open", 0.25, P_open { rate = 4000.; mut_rate = 0.; latency = true });
      ("edit_tail", 0.25,
       P_open { rate = 1000.; mut_rate = 8.; latency = false }) ]
  | Edit ->
    [ ("edit", 0.70, P_open { rate = 4000.; mut_rate = 10.; latency = true });
      ("closed_json", 0.15, P_closed { codec = Json; batch = 1 });
      ("closed_1b", 0.15, P_closed { codec = Frame; batch = 1 }) ]

(* ---- mutation generation --------------------------------------------

   Mutations are generated against a model of the declarations, so each
   one is valid given that all earlier ones were applied: add_member
   never redeclares, add_class never repeats a name or a base.  The kind
   follows the stream index — every tenth an add_class, every tenth an
   add_member with a fresh name, the rest add_member with an existing
   name — so the member-name count is the same for every seed and stays
   within the server's 64-column table budget. *)

type model = {
  mutable class_arr : string array;  (** class names by id *)
  declared : (string * string, unit) Hashtbl.t;  (** (class, member) *)
  mutable names_arr : string array;  (** member names, interning order *)
}

let model_of g =
  let declared = Hashtbl.create 4096 in
  G.iter_classes g (fun c ->
      List.iter
        (fun (m : G.member) -> Hashtbl.replace declared (G.name g c, m.G.m_name) ())
        (G.members g c));
  { class_arr = Array.init (G.num_classes g) (G.name g);
    declared;
    names_arr = Array.of_list (G.member_names g) }

let add_class_name md n = md.class_arr <- Array.append md.class_arr [| n |]
let add_name md n = md.names_arr <- Array.append md.names_arr [| n |]

let gen_mutation st md j =
  let pick_class () = md.class_arr.(Random.State.int st (Array.length md.class_arr)) in
  let pick_name () = md.names_arr.(Random.State.int st (Array.length md.names_arr)) in
  let fresh_member () =
    let cls = pick_class () and m = Printf.sprintf "n%d" j in
    Hashtbl.replace md.declared (cls, m) ();
    add_name md m;
    M.Add_member { am_class = cls; am_member = G.member m }
  in
  if j mod 10 = 4 then begin
    let want = 1 + Random.State.int st 3 in
    let chosen = Hashtbl.create 4 in
    let bases =
      List.filter_map
        (fun _ ->
          let b = pick_class () in
          if Hashtbl.mem chosen b then None
          else begin
            Hashtbl.add chosen b ();
            let kind =
              if Random.State.float st 1.0 < 0.2 then G.Virtual
              else G.Non_virtual
            in
            Some (b, kind, G.Public)
          end)
        (List.init want Fun.id)
    in
    let cls = Printf.sprintf "X%d" j and m = pick_name () in
    add_class_name md cls;
    Hashtbl.replace md.declared (cls, m) ();
    M.Add_class { ac_name = cls; ac_bases = bases; ac_members = [ G.member m ] }
  end
  else if j mod 10 = 7 then fresh_member ()
  else begin
    let rec existing tries =
      if tries = 0 then fresh_member ()
      else
        let cls = pick_class () and m = pick_name () in
        if Hashtbl.mem md.declared (cls, m) then existing (tries - 1)
        else begin
          Hashtbl.replace md.declared (cls, m) ();
          M.Add_member { am_class = cls; am_member = G.member m }
        end
    in
    existing 50
  end

(* ---- stream generation ------------------------------------------------ *)

let generate w ~seed ~seconds =
  let graph = hierarchy w ~seed in
  let st = Random.State.make [| seed; tag w; 0x5eed |] in
  let md = model_of graph in
  let n0 = G.num_classes graph in
  let query_over names_known =
    { cls = Random.State.int st n0;
      mem = md.names_arr.(Random.State.int st names_known) }
  in
  let all_mutations = ref [] and n_mut = ref 0 in
  let phases =
    List.concat_map
      (fun round ->
        List.map
          (fun (label, share, p) ->
            let label = Printf.sprintf "%s.%d" label round in
            let dur_s = share *. float_of_int seconds /. float_of_int rounds in
            match p with
            | P_closed { codec; batch } ->
              let cycle = if batch = 1 then 2048 else 256 in
              let requests =
                Array.init cycle (fun _ ->
                    Array.init batch (fun _ -> query_over (Array.length md.names_arr)))
              in
              { label; round; dur_s; kind = Closed { codec; requests } }
            | P_open { rate; mut_rate; latency } ->
              (* at least ten mutations, so every mutation kind occurs *)
              let n_m =
                if mut_rate > 0. then max 10 (int_of_float (mut_rate *. dur_s)) else 0
              in
              let first = !n_mut in
              (* names known after the k-th mutation of this phase, and the
                 member the most recent add_member touched *)
              let known = Array.make (n_m + 1) (Array.length md.names_arr) in
              let touched = Array.make (n_m + 1) None in
              let mutations =
                Array.init n_m (fun k ->
                    let m = gen_mutation st md (first + k) in
                    known.(k + 1) <- Array.length md.names_arr;
                    touched.(k + 1) <-
                      (match m with
                      | M.Add_member { am_member; _ } -> Some am_member.G.m_name
                      | M.Add_class _ -> touched.(k));
                    m)
              in
              n_mut := first + n_m;
              all_mutations := List.rev_append (Array.to_list mutations) !all_mutations;
              let n_l = int_of_float (rate *. dur_s) in
              let lookups =
                Array.init n_l (fun i ->
                    let t = float_of_int i /. rate in
                    (* mutations due at or before t *)
                    let k =
                      if n_m = 0 then 0
                      else min n_m (1 + int_of_float (t *. mut_rate))
                    in
                    match touched.(k) with
                    | Some m when Random.State.float st 1.0 < 0.3 ->
                      { cls = Random.State.int st n0; mem = m }
                    | _ -> query_over known.(k))
              in
              let lookup_conns = if n_m > 0 then [| 1 |] else [| 0; 1 |] in
              { label;
                round;
                dur_s;
                kind =
                  Open_loop
                    { lookups; lookup_rate = rate; lookup_conns; mutations;
                      mutate_rate = mut_rate; first_mutation = first; latency } })
          (plan w))
      (List.init rounds Fun.id)
  in
  let probes = Array.init 64 (fun _ -> query_over (Array.length md.names_arr)) in
  { workload = w; seed; seconds; graph; names = md.names_arr;
    mutations = Array.of_list (List.rev !all_mutations); probes; phases }

(* The declared-member count of the initial hierarchy (= interned ids
   before any mutation). *)
let initial_names t = List.length (G.member_names t.graph)

let member_id t m =
  let rec go i = if t.names.(i) = m then i else go (i + 1) in
  go 0

(* ---- wire encodings ---------------------------------------------------- *)

let json_line fields = J.to_string (J.Obj fields)

let open_line t =
  json_line
    [ ("id", J.Int 0); ("op", J.String "open"); ("session", J.String session);
      ("chg", Chg.Serialize.to_json t.graph) ]

let class_name t c = G.name t.graph c

let query_json t q =
  J.Obj [ ("class", J.String (class_name t q.cls)); ("member", J.String q.mem) ]

let lookup_line t ~id q =
  json_line
    [ ("id", J.Int id); ("op", J.String "lookup"); ("session", J.String session);
      ("class", J.String (class_name t q.cls)); ("member", J.String q.mem) ]

let batch_line t ~id qs =
  json_line
    [ ("id", J.Int id); ("op", J.String "batch_lookup");
      ("session", J.String session);
      ("queries", J.List (Array.to_list (Array.map (query_json t) qs))) ]

(* A closed-loop request of batch size 1 is a plain [lookup]. *)
let request_line t ~id qs =
  if Array.length qs = 1 then lookup_line t ~id qs.(0) else batch_line t ~id qs

let mutation_line ~id m =
  let member_json (mb : G.member) = J.Obj [ ("name", J.String mb.G.m_name) ] in
  let body =
    match m with
    | M.Add_member { am_class; am_member } ->
      ( "add_member",
        J.Obj [ ("class", J.String am_class); ("member", member_json am_member) ] )
    | M.Add_class { ac_name; ac_bases; ac_members } ->
      ( "add_class",
        J.Obj
          [ ("name", J.String ac_name);
            ( "bases",
              J.List
                (List.map
                   (fun (b, k, _) ->
                     J.Obj
                       [ ("class", J.String b);
                         ("virtual", J.Bool (k = G.Virtual)) ])
                   ac_bases) );
            ("members", J.List (List.map member_json ac_members)) ] )
  in
  json_line
    [ ("id", J.Int id); ("op", J.String "mutate"); ("session", J.String session);
      body ]

(* Member ids are the server's: [ids] defaults to the stream's
   interning order, which is the server's until it restarts (a recovered
   session interns in declaration order; clients re-fetch [symbols]). *)
let request_frame ?ids t ~id qs =
  let id_of = match ids with Some f -> f | None -> member_id t in
  let pair q = (q.cls, id_of q.mem) in
  let op =
    if Array.length qs = 1 then
      let c, m = pair qs.(0) in
      Service.Frame.Lookup { lk_class = c; lk_member = m }
    else Service.Frame.Batch_lookup (Array.map pair qs)
  in
  Service.Frame.encode_request { fr_id = id; fr_session = session; fr_op = op }

(* Every byte the stream puts on the wire, in order: the open request,
   each open-loop request in due order, and one pass over each closed
   cycle.  The determinism self-check compares these. *)
let wire_bytes t =
  let b = Buffer.create (1 lsl 20) in
  let line s = Buffer.add_string b s; Buffer.add_char b '\n' in
  line (open_line t);
  List.iteri
    (fun pi ph ->
      Buffer.add_string b (Printf.sprintf "# phase %d %s %.3f\n" pi ph.label ph.dur_s);
      match ph.kind with
      | Open_loop o ->
        Array.iteri (fun i q -> line (lookup_line t ~id:i q)) o.lookups;
        Array.iteri
          (fun j m -> line (mutation_line ~id:(o.first_mutation + j) m))
          o.mutations
      | Closed { codec = Json; requests } ->
        Array.iteri (fun i qs -> line (request_line t ~id:i qs)) requests
      | Closed { codec = Frame; requests } ->
        Array.iteri (fun i qs -> Buffer.add_string b (request_frame t ~id:i qs))
          requests)
    t.phases;
  Array.iteri (fun i q -> line (lookup_line t ~id:i q)) t.probes;
  Buffer.contents b
