(* The answer oracle: every distinct request re-run in-process through
   [Wp_twig.Backend.run] on a plan compiled exactly as the server's
   catalog compiles it, merged across documents the way the service
   merges them.  Whirlpool-S replies must be entry-identical; twig
   replies must carry the same scores (the exact join may pick other
   roots among equal-score ties). *)

module Protocol = Wp_serve.Protocol

type entry = { doc : string; root : int; score : float; progress : int }

type t = {
  docs : (string * Wp_xml.Index.t) list;  (** catalog order *)
  plans : (string * string, Whirlpool.Plan.t) Hashtbl.t;
  expected : (string, entry list) Hashtbl.t;  (** by request key *)
}

let create docs =
  { docs; plans = Hashtbl.create 64; expected = Hashtbl.create 256 }

let plan t ~doc ~index query =
  match Hashtbl.find_opt t.plans (query, doc) with
  | Some p -> p
  | None ->
      let p =
        Whirlpool.Plan.compile index Wp_relax.Relaxation.all
          (Wp_pattern.Xpath_parser.parse query)
      in
      Whirlpool.Engine.validate_plan p;
      Hashtbl.replace t.plans (query, doc) p;
      p

let compute t (r : Seeded.request) =
  let docs =
    match r.doc with
    | None -> t.docs
    | Some d -> List.filter (fun (name, _) -> name = d) t.docs
  in
  if docs = [] then invalid_arg ("Oracle: unknown document in request " ^ r.query);
  let config =
    let open Whirlpool.Engine.Config in
    match r.algo with
    | None -> default
    | Some a -> (
        match algo_of_string a with
        | Some a -> with_algo a default
        | None -> invalid_arg ("Oracle: unknown algo " ^ a))
  in
  let tagged =
    List.concat_map
      (fun (doc, index) ->
        let result =
          Wp_twig.Backend.run ~config (plan t ~doc ~index r.query) ~k:r.k
        in
        List.map
          (fun (e : Whirlpool.Topk_set.entry) ->
            { doc; root = e.root; score = e.score; progress = e.progress })
          result.answers)
      docs
  in
  let merged =
    List.stable_sort
      (fun a b ->
        match Float.compare b.score a.score with
        | 0 -> (
            match String.compare a.doc b.doc with
            | 0 -> Int.compare a.root b.root
            | c -> c)
        | c -> c)
      tagged
  in
  List.filteri (fun i _ -> i < r.k) merged

let expected t r =
  let key = Seeded.request_key r in
  match Hashtbl.find_opt t.expected key with
  | Some e -> e
  | None ->
      let e = compute t r in
      Hashtbl.replace t.expected key e;
      e

let of_answer (a : Protocol.answer) =
  { doc = a.doc; root = a.root; score = a.score; progress = a.progress }

let is_twig (r : Seeded.request) = r.algo = Some "twig"

(* [None] when the answers agree, else a one-line reason. *)
let check t (r : Seeded.request) (answers : Protocol.answer list) =
  let want = expected t r in
  let got = List.map of_answer answers in
  let agree =
    if is_twig r then
      List.map (fun e -> e.score) want = List.map (fun e -> e.score) got
    else want = got
  in
  if agree then None
  else
    Some
      (Printf.sprintf "%s (doc %s, k %d, algo %s): expected %d answers, got %d"
         r.query
         (Option.value r.doc ~default:"*")
         r.k
         (Option.value r.algo ~default:"default")
         (List.length want) (List.length got))

(* Expected answers are a pure function of the seed and the program, so
   they persist across runs of the same seed next to a digest of the
   executable that computed them. *)
let cache_file ~dir ~workload ~seed =
  Filename.concat dir
    (Printf.sprintf "oracle-%s-%d.bin" (Seeded.workload_to_string workload) seed)

let exe_digest () = Digest.to_hex (Digest.file Sys.executable_name)

let load t path =
  match open_in_bin path with
  | exception Sys_error _ -> ()
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          match (Marshal.from_channel ic : string * (string * entry list) list) with
          | digest, entries when digest = exe_digest () ->
              List.iter (fun (k, e) -> Hashtbl.replace t.expected k e) entries
          | _ -> ()
          | exception (End_of_file | Failure _) -> ())

let save t path =
  let entries = Hashtbl.fold (fun k e acc -> (k, e) :: acc) t.expected [] in
  let tmp = path ^ ".tmp" in
  let oc = open_out_bin tmp in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> Marshal.to_channel oc (exe_digest (), entries) []);
  Sys.rename tmp path
