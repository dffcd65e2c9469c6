(* The verdict oracle: a model of the hierarchy that replays the stream's
   mutations, answering each (epoch, class, member) with a from-scratch
   Figure-8 column ([Lookup_core.Engine.build_member]) over the model
   graph at that epoch.

   Queries address only classes of the initial hierarchy, whose bases
   are all initial classes too, so member [m]'s verdicts there change
   only at epochs where an [add_member] of [m] was applied.  Columns are
   therefore keyed by (member, epoch of m's last change), computed
   lazily and shared by every epoch in between. *)

module G = Chg.Graph
module E = Lookup_core.Engine
module M = Store.Mutation

type t = {
  g0 : G.t;
  muts : M.t array;
  changes : (string, int list) Hashtbl.t;
      (** member -> epochs (descending) at which an add_member of it
          became visible *)
  closures : (int, Chg.Closure.t) Hashtbl.t;
  columns : (string * int, E.t) Hashtbl.t;
}

let create g0 muts =
  let changes = Hashtbl.create 64 in
  Array.iteri
    (fun j m ->
      match m with
      | M.Add_member { am_member; _ } ->
        let n = am_member.G.m_name in
        let prev = Option.value ~default:[] (Hashtbl.find_opt changes n) in
        Hashtbl.replace changes n ((j + 1) :: prev)
      | M.Add_class _ -> ())
    muts;
  { g0; muts; changes; closures = Hashtbl.create 64; columns = Hashtbl.create 256 }

let builder_of g =
  let b = G.create_builder () in
  G.iter_classes g (fun c ->
      ignore
        (G.add_class b (G.name g c)
           ~bases:
             (List.map
                (fun (bs : G.base) -> (G.name g bs.G.b_class, bs.G.b_kind, bs.G.b_access))
                (G.bases g c))
           ~members:(G.members g c)));
  b

let graph_at t epoch =
  let b = builder_of t.g0 in
  for j = 0 to epoch - 1 do
    M.apply b t.muts.(j)
  done;
  G.freeze b

let closure_at t epoch =
  match Hashtbl.find_opt t.closures epoch with
  | Some c -> c
  | None ->
    let c = Chg.Closure.compute (graph_at t epoch) in
    Hashtbl.replace t.closures epoch c;
    c

(* The epoch at which [m]'s verdicts (over initial classes) were last
   changed, as of [epoch]. *)
let version t m epoch =
  let rec go = function [] -> 0 | e :: rest -> if e <= epoch then e else go rest in
  go (Option.value ~default:[] (Hashtbl.find_opt t.changes m))

let column t m epoch =
  let v = version t m epoch in
  match Hashtbl.find_opt t.columns (m, v) with
  | Some e -> e
  | None ->
    let e = E.build_member (closure_at t v) m in
    Hashtbl.replace t.columns (m, v) e;
    e

let verdict t ~epoch cls m = E.lookup (column t m epoch) cls m

(* The wire forms of a verdict. *)
let code_of = function
  | Some (E.Red r) -> r.Lookup_core.Abstraction.r_ldc
  | Some (E.Blue _) -> -2
  | None -> -1

(* [json_matches g v j] — a JSON lookup result (or batch entry) carries
   the verdict colour and, when red, the resolving class's name. *)
let json_matches t v j =
  let field k = match Chg.Json.member k j with Ok (Chg.Json.String s) -> Some s | _ -> None in
  match (v, field "verdict") with
  | None, Some "none" -> true
  | Some (E.Blue _), Some "blue" -> true
  | Some (E.Red r), Some "red" ->
    field "resolves_to" = Some (G.name t.g0 r.Lookup_core.Abstraction.r_ldc)
  | _ -> false

(* Whether some epoch in [lo, hi] explains the answer: a lookup sent
   while mutations were in flight may see any of them applied. *)
let exists_epoch ~lo ~hi f =
  let rec go e = e <= hi && (f e || go (e + 1)) in
  go lo
