(* Prune-soundness prover.

   The engines' pruning story (paper Sections 3-4) rests on two
   semantic facts about the score table feeding them:

   - admissibility: a partial match's [max_possible] — its score plus
     every unvisited server's [exact_weight] — bounds every completion,
     which needs each binding's contribution to lie in
     [0, exact_weight]; and
   - lattice monotonicity: every relaxation edge can only lower (or
     keep) an answer's score — leaf deletion replaces a contribution
     by 0 (needs the contribution nonnegative), and edge
     generalization / subtree promotion / value relaxation move a
     binding from the exact to the relaxed level (needs
     [relaxed_weight <= exact_weight]).

   Both reduce to the weight-order invariant
   [0 <= relaxed_weight <= exact_weight] (with both weights finite).
   This module proves that invariant {e symbolically} for every
   shipped normalization, by interval analysis over the construction
   formulas in {!Wp_score.Score_table} plus two checked lemmas about
   the idf model and the relaxation operators:

   - idf is nonnegative and antitone in the satisfying-source count
     (checked exhaustively on an integer grid, including the
     [satisfying = 0 -> log (total + 1)] convention), and
   - the relaxation operators only widen relations
     ([Relation.is_subrelation r (relax r)], checked over a depth
     grid) and content relaxation only widens the value predicate —
     so a relaxed component's satisfying count is at least the exact
     one's, and its idf at most.

   Each certificate carries its obligations with a one-line argument
   (proved) or witness (refuted); [diagnostics] turns refuted
   obligations into [sentinel/prune-unsound] errors.  [table_violations]
   is the concrete cross-check on a built table — the runtime
   [WP_CHECK_INVARIANTS] hook ([Invariants.check_table]) runs it once
   per pruning engine run, so a certificate claimed here is re-checked
   against the actual numbers the engine is about to prune with. *)

module Relation = Wp_relax.Relation
module Relaxation = Wp_relax.Relaxation
module Score_table = Wp_score.Score_table
module D = Diagnostic

(* --- symbolic intervals --- *)

module Interval = struct
  type t = { lo : float; hi : float }

  let v lo hi = { lo; hi }

  (* Products of nonnegative intervals (the only ones the construction
     formulas need). *)
  let mul a b = { lo = a.lo *. b.lo; hi = a.hi *. b.hi }
  let nonneg a = a.lo >= 0.0
  let within a ~lo ~hi = a.lo >= lo && a.hi <= hi
end

(* --- obligations and certificates --- *)

type verdict = Proved | Refuted of string

type obligation = {
  oid : string;
  claim : string;
  argument : string;  (* why it holds, or what was checked *)
  verdict : verdict;
}

type certificate = {
  subject : string;  (* e.g. "sparse under edge-gen+leaf-del+promo" *)
  obligations : obligation list;
}

let certified c =
  List.for_all (fun o -> o.verdict = Proved) c.obligations

let proved oid claim argument = { oid; claim; argument; verdict = Proved }

let checked oid claim argument ok witness =
  { oid; claim; argument; verdict = (if ok then Proved else Refuted witness) }

(* --- lemma 1: the idf model --- *)

(* Exactly {!Wp_score.Tfidf.idf}'s arithmetic on the two counts it
   depends on. *)
let idf_model ~total ~satisfying =
  if total = 0 then 0.0
  else if satisfying = 0 then log (float_of_int (total + 1))
  else log (float_of_int total /. float_of_int satisfying)

let idf_grid = 48

let idf_nonneg_ok () =
  let ok = ref true in
  for total = 0 to idf_grid do
    for s = 0 to total do
      if idf_model ~total ~satisfying:s < -.1e-12 then ok := false
    done
  done;
  !ok

let idf_antitone_ok () =
  let ok = ref true in
  for total = 0 to idf_grid do
    for s = 0 to total do
      for s' = s to total do
        if
          idf_model ~total ~satisfying:s' >
          idf_model ~total ~satisfying:s +. 1e-12
        then ok := false
      done
    done
  done;
  !ok

(* --- lemma 2: relaxation only widens --- *)

let relation_grid =
  List.concat_map
    (fun min_depth ->
      { Relation.min_depth; max_depth = None }
      :: List.filter_map
           (fun extra ->
             Some { Relation.min_depth; max_depth = Some (min_depth + extra) })
           [ 0; 1; 2; 3 ])
    [ 1; 2; 3; 4 ]

let widening_ok (config : Relaxation.config) =
  List.for_all
    (fun r ->
      Relation.is_subrelation r (Relaxation.relax_to_root config r)
      && Relation.is_subrelation r (Relaxation.relax_internal config r))
    relation_grid

(* Content relaxation accepts by equality OR token containment, so its
   predicate contains the exact (equality) one by construction; check
   the implication on a small sample anyway. *)
let value_widening_ok () =
  let samples =
    [ "a"; "a b"; "b a"; "ab"; ""; "x y z"; "a  b" ]
  in
  List.for_all
    (fun actual ->
      List.for_all
        (fun query ->
          let exact = String.equal actual query in
          let relaxed =
            String.equal actual query
            || List.exists (String.equal query)
                 (String.split_on_char ' ' actual)
          in
          (not exact) || relaxed)
        samples)
    samples

(* --- the idf-based weight facts --- *)

(* Shared premises for Raw / Sparse / Dense: raw weights are idf
   values, [relaxed_weight] is the idf of the widened component (or
   equals [exact_weight] when the config relaxes nothing), so
   [0 <= relaxed <= exact] pointwise. *)
let raw_weight_obligations (config : Relaxation.config) =
  [
    checked "idf-nonneg" "idf(p) >= 0 for every predicate p"
      (Printf.sprintf
         "log(total/satisfying) with 0 <= satisfying <= total, and \
          log(total+1) when satisfying = 0; checked on the 0..%d grid"
         idf_grid)
      (idf_nonneg_ok ()) "idf model produced a negative value on the grid";
    checked "idf-antitone"
      "idf is antitone in the satisfying-source count"
      (Printf.sprintf
         "satisfying' >= satisfying implies idf' <= idf, including the \
          satisfying = 0 convention; checked on the 0..%d grid" idf_grid)
      (idf_antitone_ok ())
      "idf model increased with the satisfying count on the grid";
    checked "relaxation-widens"
      "every enabled relaxation edge maps a relation to a superrelation"
      "Relation.is_subrelation r (relax r) over the depth grid \
       (min_depth 1..4 x max_depth {=, +1..+3, unbounded})"
      (widening_ok config)
      "a relaxation operator produced a non-superrelation";
    checked "value-widens"
      "content relaxation only widens the value predicate"
      "relaxed acceptance is equality OR token containment, a superset \
       by construction; implication checked on sample strings"
      (value_widening_ok ())
      "exact value acceptance not contained in relaxed acceptance";
    proved "relaxed-le-exact"
      "0 <= relaxed_weight <= exact_weight for every raw entry"
      "a widened predicate is satisfied by at least the exact \
       predicate's sources (relaxation-widens, value-widens), so its \
       satisfying count is >= and its idf <= (idf-antitone); both idfs \
       are >= 0 (idf-nonneg); identical when the config relaxes nothing";
  ]

let order_conclusions (config : Relaxation.config) =
  [
    (if config.Relaxation.leaf_deletion then
       proved "deletion-monotone"
         "a leaf-deletion edge never raises an answer's score"
         "deletion replaces a contribution w by 0 and w >= 0"
     else
       proved "deletion-monotone" "no leaf-deletion edges in this config"
         "vacuous: config.leaf_deletion = false");
    proved "relax-edge-monotone"
      "edge generalization / promotion / value relaxation never raise a score"
      "each moves a binding's contribution from exact_weight to \
       relaxed_weight and relaxed_weight <= exact_weight";
    proved "max-possible-admissible"
      "score + sum of unvisited exact_weights bounds every completion"
      "every future binding contributes at most its exact_weight \
       (relaxed_weight <= exact_weight, deleted = 0 <= exact_weight)";
  ]

(* --- per-normalization certificates --- *)

let pp_subject normalization config =
  Format.asprintf "%a under %a" Score_table.pp_normalization normalization
    Relaxation.pp_config config

let interval_obligations ~exact ~ratio =
  let relaxed = Interval.mul exact ratio in
  [
    checked "weights-nonneg" "exact and relaxed weights are nonnegative"
      (Printf.sprintf "exact in [%.2f, %.2f], relaxed = exact * ratio in \
                       [%.2f, %.2f]"
         exact.Interval.lo exact.Interval.hi relaxed.Interval.lo
         relaxed.Interval.hi)
      (Interval.nonneg exact && Interval.nonneg relaxed)
      "a weight interval reaches below zero";
    checked "relaxed-le-exact" "relaxed_weight <= exact_weight pointwise"
      (Printf.sprintf
         "relaxed = exact * ratio with ratio in [%.2f, %.2f] within [0, 1] \
          and exact >= 0" ratio.Interval.lo ratio.Interval.hi)
      (Interval.within ratio ~lo:0.0 ~hi:1.0 && Interval.nonneg exact)
      "the relaxed/exact ratio interval escapes [0, 1]";
  ]

let certify_normalization ?(config = Relaxation.all)
    (normalization : Score_table.normalization) =
  let subject = pp_subject normalization config in
  let obligations =
    match normalization with
    | Score_table.Raw ->
        raw_weight_obligations config @ order_conclusions config
    | Score_table.Sparse ->
        raw_weight_obligations config
        @ [
            proved "sparse-preserves-order"
              "per-predicate normalization keeps 0 <= relaxed <= exact"
              "exact > 0: entry becomes (1, min 1 (relaxed/exact)) with \
               relaxed/exact in [0, 1]; exact = 0 forces relaxed = 0 \
               (antitone idf cannot exceed 0) and the entry becomes \
               (1, 0.5)";
          ]
        @ order_conclusions config
    | Score_table.Dense ->
        raw_weight_obligations config
        @ [
            proved "dense-preserves-order"
              "global rescaling keeps 0 <= relaxed <= exact"
              "m = max exact > 0 divides both weights (order preserved \
               by a positive scalar); m <= 0 forces every weight to 0 \
               and the entries become (1, 1)";
          ]
        @ order_conclusions config
    | Score_table.Random_sparse _ ->
        interval_obligations
          ~exact:(Interval.v 0.6 1.0)
          ~ratio:(Interval.v 0.2 0.6)
        @ order_conclusions config
    | Score_table.Random_dense _ ->
        interval_obligations
          ~exact:(Interval.v 0.45 0.55)
          ~ratio:(Interval.v 0.85 1.0)
        @ order_conclusions config
  in
  { subject; obligations }

(* --- concrete tables --- *)

let table_violations (t : Score_table.t) =
  let violations = ref [] in
  for node = Score_table.size t - 1 downto 0 do
    let e = Score_table.entry t node in
    let exact = e.Score_table.exact_weight
    and relaxed = e.Score_table.relaxed_weight in
    if not (Float.is_finite exact && Float.is_finite relaxed) then
      violations :=
        Printf.sprintf "q%d: non-finite weight (exact=%g relaxed=%g)" node
          exact relaxed
        :: !violations
    else begin
      if exact < 0.0 then
        violations :=
          Printf.sprintf
            "q%d: exact_weight %g is negative — binding the node would \
             lower the score" node exact
          :: !violations;
      if relaxed < 0.0 then
        violations :=
          Printf.sprintf
            "q%d: relaxed_weight %g is negative — a relaxed binding (or \
             deleting one) would lower the score" node relaxed
          :: !violations;
      if relaxed > exact then
        violations :=
          Printf.sprintf
            "q%d: relaxed_weight %g exceeds exact_weight %g — a relaxation \
             edge could raise the score and max_possible under-estimates \
             completions" node relaxed exact
          :: !violations
    end
  done;
  !violations

let certify_table ?(subject = "score table") (t : Score_table.t) =
  let obligations =
    match table_violations t with
    | [] ->
        [
          proved "weights-in-order"
            "0 <= relaxed_weight <= exact_weight (finite) for every entry"
            (Printf.sprintf "checked %d entries" (Score_table.size t));
        ]
    | v :: _ as all ->
        [
          checked "weights-in-order"
            "0 <= relaxed_weight <= exact_weight (finite) for every entry"
            (Printf.sprintf "checked %d entries" (Score_table.size t))
            false
            (Printf.sprintf "%s%s" v
               (match all with
               | [ _ ] -> ""
               | _ -> Printf.sprintf " (+%d more)" (List.length all - 1)));
        ]
  in
  { subject; obligations }

(* --- shipped configurations --- *)

let shipped_normalizations =
  [
    Score_table.Raw;
    Score_table.Sparse;
    Score_table.Dense;
    Score_table.Random_sparse 42;
    Score_table.Random_dense 42;
  ]

let shipped_configs =
  [ Relaxation.exact; Relaxation.all; Relaxation.with_content ]

let check_shipped () =
  List.concat_map
    (fun config ->
      List.map
        (fun n -> certify_normalization ~config n)
        shipped_normalizations)
    shipped_configs

(* --- diagnostics --- *)

let diagnostics certs =
  List.concat_map
    (fun c ->
      List.filter_map
        (fun o ->
          match o.verdict with
          | Proved -> None
          | Refuted witness ->
              Some
                (D.errorf "sentinel/prune-unsound" "%s: %s refuted: %s"
                   c.subject o.claim witness))
        c.obligations)
    certs
