let mutex_name = "score.component_table.mutex"
let capacity = 4096

type roots_key = {
  tag : string;
  value : string option;
  relation : Wp_relax.Relation.t;
  value_relaxation : bool;
}

type t = {
  mutex : Mutex.t;
  counts : (Component.t, int) Lru.t;
  roots : (roots_key, Wp_xml.Doc.node_id array) Lru.t;
}

type stats = { hits : int; misses : int; size : int }

let create () =
  {
    mutex = Mutex.create ();
    counts = Lru.create ~capacity;
    roots = Lru.create ~capacity;
  }

let with_lock t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

(* Look up under the lock, compute a miss without it and insert under
   it again.  Two racing fills both compute, the first insert wins and
   both return it; a [compute] that raises inserts nothing. *)
let memo t table key ~compute =
  match with_lock t (fun () -> Lru.find table key) with
  | Some v -> v
  | None ->
      let v = compute () in
      with_lock t (fun () -> Lru.add_absent table key v)

(* The sweep never reads [node], so components that differ only there
   share one entry. *)
let satisfying_roots t (c : Component.t) ~compute =
  memo t t.counts { c with node = 0 } ~compute

let roots t key ~compute = memo t t.roots key ~compute

let stats t =
  with_lock t (fun () ->
      {
        hits = Lru.hits t.counts + Lru.hits t.roots;
        misses = Lru.misses t.counts + Lru.misses t.roots;
        size = Lru.length t.counts + Lru.length t.roots;
      })
