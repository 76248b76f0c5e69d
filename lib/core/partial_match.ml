type t = {
  id : int;
  bindings : int array;
  mutable visited_mask : int;
  mutable score : float;
  mutable max_possible : float;
}

let unbound = -1
let root_binding t = t.bindings.(0)

let create_root ~plan_servers ~id ~root ~weight ~max_rest =
  let bindings = Array.make plan_servers unbound in
  bindings.(0) <- root;
  {
    id;
    bindings;
    visited_mask = 1;
    score = weight;
    max_possible = weight +. max_rest;
  }

let visited t s = t.visited_mask land (1 lsl s) <> 0
let is_complete t ~full_mask = t.visited_mask = full_mask

let unvisited_servers t ~n_servers =
  let rec go s acc =
    if s < 1 then acc
    else go (s - 1) (if visited t s then acc else s :: acc)
  in
  go (n_servers - 1) []

let extend_onto bindings t ~id ~server ~binding ~weight ~server_max =
  bindings.(server) <- (match binding with Some n -> n | None -> unbound);
  {
    id;
    bindings;
    visited_mask = t.visited_mask lor (1 lsl server);
    score = t.score +. weight;
    max_possible = t.max_possible -. server_max +. weight;
  }
[@@wp.hot]

let extend t ~id ~server ~binding ~weight ~server_max =
  extend_onto (Array.copy t.bindings) t ~id ~server ~binding ~weight ~server_max

let extend_last t ~id ~server ~binding ~weight ~server_max =
  extend_onto t.bindings t ~id ~server ~binding ~weight ~server_max
[@@wp.hot]

let n_visited t = Bits.popcount t.visited_mask

let bound t s = if t.bindings.(s) = unbound then None else Some t.bindings.(s)
