(* Streaming certification — the machinery behind
   [Engine.Config.on_certified].

   The paper's top-k invariant makes an answer final the moment no
   alive partial match can still beat it.  Operationally: let [ub] be
   the maximum [max_possible] over every alive partial match; a top-k
   entry whose score is strictly above [ub] can never be displaced,
   evicted, re-scored or re-ordered, because

   - any future entry descends from an alive match, so its score is
     bounded by that match's [max_possible] <= ub < the entry's score;
   - extensions inherit [max_possible] no greater than their parent's,
     and parents are only removed after their extensions are
     registered, so [ub] is non-increasing across certification points
     and an emitted prefix stays emitted;
   - an entry whose own match is still alive (partial admission) has
     score <= that match's [max_possible] <= ub, so the strict [>]
     keeps it un-streamed until the match completes, dies or is
     pruned.

   The caller supplies [ub] (see {!Alive} and [Engine.run]).  A call
   costs O(1) unless something certifies.  The last sort saw at most
   [streamed] entries above [floor], the score of the first entry it
   left un-streamed; since then entries have only left the set or
   arrived at or below {!Topk_set.best_since_mark}.  If neither value
   beats [ub], at most [streamed] entries do, and sorting would emit
   nothing. *)

type t = {
  emit : Topk_set.entry -> unit;
  mutable streamed : int;  (* entries already handed to [emit] *)
  mutable floor : float;
      (* score of the first entry the last sort did not stream *)
}

let create ~emit = { emit; streamed = 0; floor = Float.neg_infinity }

let streamed t = t.streamed

(* Taken at most once per certified batch: sort, collect the entries
   past the streamed prefix that beat [bound], re-read [floor] off the
   first that does not. *)
let certify_sorted t topk ~bound =
  let rec take i acc = function
    | (e : Topk_set.entry) :: rest when e.score > bound ->
        take (i + 1) (if i >= t.streamed then e :: acc else acc) rest
    | e :: _ ->
        t.floor <- e.score;
        List.rev acc
    | [] ->
        t.floor <- Float.neg_infinity;
        List.rev acc
  in
  let fresh = take 0 [] (Topk_set.entries topk) in
  Topk_set.mark topk;
  t.streamed <- t.streamed + List.length fresh;
  fresh
[@@wp.bounded "take is structural recursion over the entries list"]

(* The entries newly certified since the last call, in final answer
   order (the emitted stream is always a stable prefix of
   [Topk_set.entries]).  Bumps [streamed]; the caller invokes [emit] —
   outside any engine lock in the multi-threaded engine. *)
let newly_certified t topk ~bound =
  if t.floor > bound || Topk_set.best_since_mark topk > bound then
    certify_sorted t topk ~bound
  else []
[@@wp.hot]

let emit t entry = t.emit entry

let flush t topk ~bound = List.iter t.emit (newly_certified t topk ~bound)
[@@wp.hot]

(* End of a run that drained naturally: nothing is alive, so every
   remaining entry is final.  (Not called on partial runs — answers a
   deadline cut short stay in the buffered reply.) *)
let flush_all t topk =
  let rec skip i = function
    | (e : Topk_set.entry) :: rest ->
        if i >= t.streamed then begin
          t.streamed <- t.streamed + 1;
          t.emit e
        end;
        skip (i + 1) rest
    | [] -> ()
  in
  skip 0 (Topk_set.entries topk)
[@@wp.bounded "skip is structural recursion over the entries list"]

(* The alive set as a lazy max-heap of (max_possible, id) plus a table
   of live ids: [remove] just drops the id, and [bound] pops stale heap
   tops on demand — the same lazy-deletion idiom as {!Topk_set}'s
   threshold heap. *)
module Alive = struct
  type t = {
    heap : int Pqueue.t;  (* priority = max_possible, payload = match id *)
    ids : (int, unit) Hashtbl.t;
  }

  let create () = { heap = Pqueue.create (); ids = Hashtbl.create 64 }

  let add t (pm : Partial_match.t) =
    Hashtbl.replace t.ids pm.id ();
    Pqueue.push t.heap pm.max_possible pm.id

  let remove t id = Hashtbl.remove t.ids id

  let rec bound t =
    match Pqueue.peek t.heap with
    | None -> Float.neg_infinity
    | Some id when Hashtbl.mem t.ids id -> Pqueue.max_priority t.heap
    | Some _ ->
        ignore (Pqueue.pop t.heap : int option);
        bound t
  [@@wp.bounded
    "each recursive step pops one stale heap item; the heap size strictly \
     decreases"]
end
