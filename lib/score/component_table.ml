let mutex_name = "score.component_table.mutex"
let capacity = 4096

type roots_key = {
  tag : string;
  value : string option;
  relation : Wp_relax.Relation.t;
  value_relaxation : bool;
}

type sweep = { count : int; bits : Bytes.t }

let sweep_create n = Bytes.make (((n + 63) / 64) * 8) '\000'

let sweep_set bits i =
  Bytes.set bits (i lsr 3)
    (Char.unsafe_chr (Char.code (Bytes.get bits (i lsr 3)) lor (1 lsl (i land 7))))

let sweep_mem bits i =
  Char.code (Bytes.get bits (i lsr 3)) land (1 lsl (i land 7)) <> 0

type roots = {
  nodes : Wp_xml.Doc.node_id array;
  candidates : Bytes.t;
  depth1 : Bytes.t;
  content_exact : Bytes.t;
}

type t = {
  mutex : Mutex.t;
  counts : (Component.t, sweep) Lru.t;
  roots : (roots_key, roots) Lru.t;
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
let sweep t (c : Component.t) ~compute =
  memo t t.counts { c with node = 0 } ~compute

let roots t key ~compute = memo t t.roots key ~compute

let stats t =
  with_lock t (fun () ->
      {
        hits = Lru.hits t.counts + Lru.hits t.roots;
        misses = Lru.misses t.counts + Lru.misses t.roots;
        size = Lru.length t.counts + Lru.length t.roots;
      })
