type 'a cell = { priority : float; tie : float; seq : int; value : 'a }

type 'a t = {
  mutable heap : 'a cell array;
  mutable size : int;
  mutable next_seq : int;
}

let create () = { heap = [||]; size = 0; next_seq = 0 }

let length q = q.size
let is_empty q = q.size = 0

(* [a] wins over [b] on higher priority, then higher tie-break key, then
   earlier insertion. *)
let wins a b =
  a.priority > b.priority
  || (a.priority = b.priority
     && (a.tie > b.tie || (a.tie = b.tie && a.seq < b.seq)))

let swap q i j =
  let t = q.heap.(i) in
  q.heap.(i) <- q.heap.(j);
  q.heap.(j) <- t

let rec sift_up q i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if wins q.heap.(i) q.heap.(parent) then begin
      swap q i parent;
      sift_up q parent
    end
  end

let rec sift_down q i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let best = ref i in
  if l < q.size && wins q.heap.(l) q.heap.(!best) then best := l;
  if r < q.size && wins q.heap.(r) q.heap.(!best) then best := r;
  if !best <> i then begin
    swap q i !best;
    sift_down q !best
  end

let push ?(tie = 0.0) q priority value =
  let cell = { priority; tie; seq = q.next_seq; value } in
  q.next_seq <- q.next_seq + 1;
  if q.size = Array.length q.heap then begin
    let capacity = max 16 (2 * Array.length q.heap) in
    let heap = Array.make capacity cell in
    Array.blit q.heap 0 heap 0 q.size;
    q.heap <- heap
  end;
  q.heap.(q.size) <- cell;
  q.size <- q.size + 1;
  sift_up q (q.size - 1)

let pop_with_priority q =
  if q.size = 0 then None
  else begin
    let top = q.heap.(0) in
    q.size <- q.size - 1;
    if q.size > 0 then begin
      q.heap.(0) <- q.heap.(q.size);
      sift_down q 0
    end;
    Some (top.priority, top.value)
  end

let pop q = Option.map snd (pop_with_priority q)
let peek q = if q.size = 0 then None else Some q.heap.(0).value
let max_priority q =
  if q.size = 0 then Float.neg_infinity else q.heap.(0).priority

let max_tie q = if q.size = 0 then Float.neg_infinity else q.heap.(0).tie

let clear q = q.size <- 0

let drain q =
  let rec go acc = match pop q with None -> List.rev acc | Some x -> go (x :: acc) in
  go []
