(* Hash table + intrusive doubly-linked recency list; [head] is the
   most-recently-used end, [tail] the eviction end. *)

type ('k, 'v) node = {
  key : 'k;
  mutable value : 'v;
  mutable prev : ('k, 'v) node option;  (* toward head *)
  mutable next : ('k, 'v) node option;  (* toward tail *)
}

type ('k, 'v) t = {
  capacity : int;
  table : ('k, ('k, 'v) node) Hashtbl.t;
  mutable head : ('k, 'v) node option;
  mutable tail : ('k, 'v) node option;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
}

let create ~capacity =
  if capacity < 1 then invalid_arg "Lru.create: capacity >= 1";
  {
    capacity;
    table = Hashtbl.create (min capacity 64);
    head = None;
    tail = None;
    hits = 0;
    misses = 0;
    evictions = 0;
  }

let capacity t = t.capacity
let length t = Hashtbl.length t.table
let hits t = t.hits
let misses t = t.misses
let evictions t = t.evictions

let hit_rate t =
  let total = t.hits + t.misses in
  if total = 0 then 0.0 else float_of_int t.hits /. float_of_int total

let unlink t node =
  (match node.prev with
  | Some p -> p.next <- node.next
  | None -> t.head <- node.next);
  (match node.next with
  | Some n -> n.prev <- node.prev
  | None -> t.tail <- node.prev);
  node.prev <- None;
  node.next <- None

let push_front t node =
  node.next <- t.head;
  node.prev <- None;
  (match t.head with Some h -> h.prev <- Some node | None -> t.tail <- Some node);
  t.head <- Some node

let touch t node =
  match t.head with
  | Some h when h == node -> ()
  | _ ->
      unlink t node;
      push_front t node

let find t key =
  match Hashtbl.find_opt t.table key with
  | Some node ->
      t.hits <- t.hits + 1;
      touch t node;
      Some node.value
  | None ->
      t.misses <- t.misses + 1;
      None

let mem t key = Hashtbl.mem t.table key

let evict_lru t =
  match t.tail with
  | None -> ()
  | Some node ->
      unlink t node;
      Hashtbl.remove t.table node.key;
      t.evictions <- t.evictions + 1

let add t key value =
  match Hashtbl.find_opt t.table key with
  | Some node ->
      node.value <- value;
      touch t node
  | None ->
      if Hashtbl.length t.table >= t.capacity then evict_lru t;
      let node = { key; value; prev = None; next = None } in
      Hashtbl.replace t.table key node;
      push_front t node

let add_absent t key value =
  match Hashtbl.find_opt t.table key with
  | Some node ->
      touch t node;
      node.value
  | None ->
      add t key value;
      value

let find_or_add t key ~compute =
  match find t key with
  | Some v -> v
  | None ->
      let v = compute key in
      add t key v;
      v

let filter t keep =
  let rec go = function
    | None -> ()
    | Some node ->
        let next = node.next in
        if not (keep node.key node.value) then begin
          unlink t node;
          Hashtbl.remove t.table node.key
        end;
        go next
  in
  go t.head

let keys t =
  let rec go acc = function
    | None -> List.rev acc
    | Some node -> go (node.key :: acc) node.next
  in
  go [] t.head
