(* The boxed lazy memo the packed one replaced, kept as a test oracle for
   its storage and eviction semantics: one [(class, member)]-keyed
   [Hashtbl] of boxed verdicts and a [Queue] of keys in fill order.  The
   packed memo must answer the same, report the same [cached_entries]
   and [evict] counts, and bump the same [memo_*] counters, under any
   interleaving of its operations (test/test_props.ml). *)

module Engine = Lookup_core.Engine
module Metrics = Lookup_core.Metrics

type t = {
  cl : Chg.Closure.t;
  cache : (Chg.Graph.class_id * string, Engine.verdict option) Hashtbl.t;
  order : (Chg.Graph.class_id * string) Queue.t;
  max_entries : int option;
  root_queries : (string, int) Hashtbl.t;
  metrics : Metrics.t;
  mutable depth : int;
}

let create ?(metrics = Metrics.disabled) ?max_entries cl =
  { cl;
    cache = Hashtbl.create 64;
    order = Queue.create ();
    max_entries;
    root_queries = Hashtbl.create 16;
    metrics;
    depth = 0 }

(* The queue may hold stale keys (evicted then recomputed ones appear
   twice); skip those. *)
let rec evict_one t =
  match Queue.take_opt t.order with
  | None -> false
  | Some key ->
    if Hashtbl.mem t.cache key then begin
      Hashtbl.remove t.cache key;
      true
    end
    else evict_one t

let evict t n =
  let evicted = ref 0 in
  while !evicted < n && evict_one t do
    incr evicted
  done;
  !evicted

let clear t =
  Hashtbl.reset t.cache;
  Queue.clear t.order

let remember t key v =
  Hashtbl.add t.cache key v;
  Queue.add key t.order;
  match t.max_entries with
  | Some cap when Hashtbl.length t.cache > cap -> ignore (evict_one t)
  | _ -> ()

let rec lookup_filling t c m =
  match Hashtbl.find_opt t.cache (c, m) with
  | Some v ->
    Metrics.bump t.metrics t.metrics.Metrics.memo_hits;
    v
  | None ->
    Metrics.bump t.metrics t.metrics.Metrics.memo_misses;
    if t.depth > 0 then
      Metrics.bump t.metrics t.metrics.Metrics.memo_recursive_fills;
    t.depth <- t.depth + 1;
    let v =
      Fun.protect ~finally:(fun () -> t.depth <- t.depth - 1) (fun () ->
          Engine.step ~metrics:t.metrics ~static_rule:true t.cl m
            (fun x -> lookup_filling t x m)
            c)
    in
    remember t (c, m) v;
    v

let lookup t c m =
  Hashtbl.replace t.root_queries m
    (1 + Option.value ~default:0 (Hashtbl.find_opt t.root_queries m));
  lookup_filling t c m

let root_queries t m =
  Option.value ~default:0 (Hashtbl.find_opt t.root_queries m)

let materialize_column t m =
  Lookup_core.Packed.pack_column
    (Array.init
       (Chg.Graph.num_classes (Chg.Closure.graph t.cl))
       (fun c -> lookup_filling t c m))

let cached_entries t = Hashtbl.length t.cache
