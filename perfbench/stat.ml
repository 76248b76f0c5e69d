(* Statistics helpers shared by the served run and the replays.  Every
   figure is finite, even over an empty window, so a run that completes
   nothing still prints a well-formed result. *)

(* Nearest-rank percentile, [q] in [0, 1]; [0.] on an empty sample.  The
   same definition the server's own latency snapshot uses. *)
let percentile samples q = Wp_serve.Metrics.percentile samples q

let median samples = percentile samples 0.5

(* Samples strictly beyond the nearest-rank [q]-th percentile of [n]. *)
let beyond ~n q =
  let rank = int_of_float (Float.ceil (q *. float_of_int n)) in
  n - max 1 rank

let tail_candidates = [ 0.999; 0.99; 0.95; 0.9; 0.75; 0.5 ]

(* The highest percentile a sample of [n] supports: at least 10 samples
   must lie beyond it.  [None] below 20 samples. *)
let supported_tail n =
  List.find_opt (fun q -> n > 0 && beyond ~n q >= 10) tail_candidates

(* [num / den], or [0.] when [den] is zero. *)
let ratio num den = if den = 0.0 then 0.0 else num /. den

(* --- request outcomes --- *)

type outcome =
  | Ok_reply
  | Error_reply  (** status error *)
  | Overloaded  (** shed at admission *)
  | Partial  (** deadline cut the top-k short *)
  | Transport  (** connect/read/write failure, or an unparseable frame *)
  | Wrong_answer  (** the reply disagreed with the oracle *)

let outcome_to_string = function
  | Ok_reply -> "ok"
  | Error_reply -> "error"
  | Overloaded -> "overloaded"
  | Partial -> "partial"
  | Transport -> "transport"
  | Wrong_answer -> "wrong_answer"

(* Every attempt is counted, whatever became of it, so transport
   failures cannot shrink the error-rate denominator. *)
type tally = { mutable attempted : int; mutable failed : int }

let tally () = { attempted = 0; failed = 0 }

let record t outcome =
  t.attempted <- t.attempted + 1;
  if outcome <> Ok_reply then t.failed <- t.failed + 1

let error_rate t = ratio (float_of_int t.failed) (float_of_int t.attempted)
