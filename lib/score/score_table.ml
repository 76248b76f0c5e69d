module Pattern = Wp_pattern.Pattern
module Relaxation = Wp_relax.Relaxation

type normalization =
  | Raw
  | Sparse
  | Dense
  | Random_sparse of int
  | Random_dense of int

let pp_normalization ppf = function
  | Raw -> Format.pp_print_string ppf "raw"
  | Sparse -> Format.pp_print_string ppf "sparse"
  | Dense -> Format.pp_print_string ppf "dense"
  | Random_sparse seed -> Format.fprintf ppf "random-sparse(%d)" seed
  | Random_dense seed -> Format.fprintf ppf "random-dense(%d)" seed

let normalization_of_string = function
  | "raw" -> Some Raw
  | "sparse" -> Some Sparse
  | "dense" -> Some Dense
  | "random-sparse" -> Some (Random_sparse 42)
  | "random-dense" -> Some (Random_dense 42)
  | _ -> None

type entry = {
  node : Pattern.node_id;
  exact_weight : float;
  relaxed_weight : float;
}

type t = { entries : entry array }

let of_entries entries = { entries = Array.copy entries }
let entry t node = t.entries.(node)
let size t = Array.length t.entries
let max_contribution t node = t.entries.(node).exact_weight

let max_total t =
  Array.fold_left (fun acc e -> acc +. e.exact_weight) 0.0 t.entries

(* splitmix64, kept local to avoid a dependency on the generator lib. *)
let make_rng seed =
  let state = ref (Int64.of_int seed) in
  fun () ->
    let open Int64 in
    state := add !state 0x9E3779B97F4A7C15L;
    let z = !state in
    let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
    let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
    let z = logxor z (shift_right_logical z 31) in
    Int64.to_float (shift_right_logical z 11) /. 9007199254740992.0

let uniform rng lo hi = lo +. ((hi -. lo) *. rng ())

let raw_entries memo idx pat config =
  let components = Component.of_pattern pat in
  Array.map
    (fun c ->
      let exact_weight = Tfidf.idf ~memo idx c in
      let relaxed_weight =
        if Component.relaxed_differs config c then
          Tfidf.idf ~memo idx (Component.relaxed config c)
        else exact_weight
      in
      { node = c.Component.node; exact_weight; relaxed_weight })
    components

let normalize_sparse entries =
  Array.map
    (fun e ->
      if e.exact_weight > 0.0 then
        {
          e with
          exact_weight = 1.0;
          relaxed_weight = min 1.0 (e.relaxed_weight /. e.exact_weight);
        }
      else
        (* A predicate every candidate satisfies discriminates nothing;
           under per-predicate normalization it still contributes a full
           unit when matched exactly. *)
        { e with exact_weight = 1.0; relaxed_weight = 0.5 })
    entries

let normalize_dense entries =
  let m =
    Array.fold_left (fun acc e -> Float.max acc e.exact_weight) 0.0 entries
  in
  if m <= 0.0 then
    Array.map (fun e -> { e with exact_weight = 1.0; relaxed_weight = 1.0 }) entries
  else
    Array.map
      (fun e ->
        {
          e with
          exact_weight = e.exact_weight /. m;
          relaxed_weight = e.relaxed_weight /. m;
        })
      entries

let random_entries pat ~sparse seed =
  let rng = make_rng seed in
  Array.init (Pattern.size pat) (fun node ->
      if sparse then
        let exact_weight = uniform rng 0.6 1.0 in
        { node; exact_weight; relaxed_weight = exact_weight *. uniform rng 0.2 0.6 }
      else
        let exact_weight = uniform rng 0.45 0.55 in
        { node; exact_weight; relaxed_weight = exact_weight *. uniform rng 0.85 1.0 })

let build ?(memo = Component_table.create ()) idx pat config normalization =
  let entries =
    match normalization with
    | Raw -> raw_entries memo idx pat config
    | Sparse -> normalize_sparse (raw_entries memo idx pat config)
    | Dense -> normalize_dense (raw_entries memo idx pat config)
    | Random_sparse seed -> random_entries pat ~sparse:true seed
    | Random_dense seed -> random_entries pat ~sparse:false seed
  in
  { entries }

let pp ppf t =
  Format.fprintf ppf "@[<v>";
  Array.iter
    (fun e ->
      Format.fprintf ppf "q%d: exact=%.4f relaxed=%.4f@," e.node e.exact_weight
        e.relaxed_weight)
    t.entries;
  Format.fprintf ppf "@]"
