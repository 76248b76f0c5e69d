exception Violation of string

(* Read eagerly at module init: [enabled] is consulted concurrently from
   worker domains, where forcing a lazy would race. *)
let from_env =
  match Sys.getenv_opt "WP_CHECK_INVARIANTS" with
  | None | Some "" | Some "0" -> false
  | Some _ -> true

let override = ref None
let enabled () = match !override with Some b -> b | None -> from_env
let set_enabled b = override := Some b

(* Scores are sums of idf logs accumulated in different orders by the
   two engines; allow for rounding. *)
(* The exact comparison comes first: the tolerance arithmetic turns into
   NaN when [b] is infinite (e.g. the -inf threshold of an unfilled
   top-k set). *)
let le a b = a <= b || a <= b +. 1e-9 +. (1e-12 *. Float.abs b)

let fail fmt = Format.kasprintf (fun m -> raise (Violation m)) fmt

let check_bounds plan (pm : Partial_match.t) =
  let bound = Wp_score.Score_table.max_total (plan : Plan.t).scores in
  if not (le pm.score pm.max_possible) then
    fail "match %d: score %.6f exceeds its max_possible %.6f" pm.id pm.score
      pm.max_possible;
  if not (le pm.max_possible bound) then
    fail "match %d: max_possible %.6f exceeds the static score bound %.6f"
      pm.id pm.max_possible bound

let check_seed plan (pm : Partial_match.t) =
  let root = Partial_match.root_binding pm in
  let bound = Plan.bound_of_root plan ~root in
  if not (le pm.score bound) then
    fail "match %d: score %.6f exceeds root %d's seed bound %.6f (seed \
          pruning is unsound)"
      pm.id pm.score root bound

let check_class plan (c : Plan.seed_class) pos =
  if pos < 0 then
    fail "a class of bound %h and root weight %h ran out of roots before \
          its size %d (a signature mask is wrong)"
      c.bound c.weight c.size;
  let root = Wp_xml.Index.posting plan.Plan.root_postings pos in
  let bound = Plan.bound_of_root plan ~root
  and weight = Plan.root_weight plan root in
  if bound <> c.bound || weight <> c.weight then
    fail "root %d (seed bound %h, root weight %h) opened from a class of \
          bound %h and root weight %h (a signature mask is wrong)"
      root bound weight c.bound c.weight

let check_root plan pm =
  check_bounds plan pm;
  check_seed plan pm

let check_extension plan ~parent (ext : Partial_match.t) =
  let p : Partial_match.t = parent in
  if not (le p.score ext.score) then
    fail "match %d -> %d: score decreased %.6f -> %.6f along an extension"
      p.id ext.id p.score ext.score;
  if not (le ext.max_possible p.max_possible) then
    fail "match %d -> %d: max_possible increased %.6f -> %.6f along an \
          extension (pruning is unsound)"
      p.id ext.id p.max_possible ext.max_possible;
  check_bounds plan ext;
  check_seed plan ext

(* Concrete cross-check of the prune-soundness certificate
   ([Wp_analysis.Prove]): the invariants above only hold when the score
   table's weights satisfy [0 <= relaxed <= exact] (finite). *)
let check_table scores =
  match Wp_analysis.Prove.table_violations scores with
  | [] -> ()
  | v :: _ -> fail "score table fails prune-soundness: %s" v

let check_threshold ~before ~after =
  if not (le before after) then
    fail "top-k threshold decreased %.6f -> %.6f within an insertion" before
      after
