(* The benchmark harness: one section per table/figure of the paper's
   evaluation (see DESIGN.md for the experiment index).

     dune exec bench/main.exe                 # everything, paper-scale
     dune exec bench/main.exe -- --quick      # everything, small documents
     dune exec bench/main.exe -- fig6 fig9    # selected exhibits
*)

let exhibits =
  [
    ("fig3", Fig3.run);
    ("fig5", Fig5.run);
    ("fig6", Fig67.run);
    ("fig7", Fig67.run);
    ("fig8", Fig8.run);
    ("fig9", Fig9.run);
    ("fig10", Fig10.run);
    ("fig11", Fig11.run);
    ("table2", Table2.run);
    ("scoring", Scoring.run);
    ("queues", Queues.run);
    ("quality", Extensions.quality);
    ("fagin", Fagin_bench.run);
    ("corpus", Corpus.run);
    ("content", Content_bench.run);
    ("micro", Micro.run);
  ]

(* fig6 and fig7 share one implementation; avoid running it twice when
   both are selected (or when running everything). *)
let dedup names =
  let seen = Hashtbl.create 8 in
  List.filter
    (fun n ->
      let key = if n = "fig7" then "fig6" else n in
      if Hashtbl.mem seen key then false
      else begin
        Hashtbl.add seen key ();
        true
      end)
    names

let run_selected quick csv names =
  Common.csv_dir := csv;
  Option.iter
    (fun dir -> if not (Sys.file_exists dir) then Sys.mkdir dir 0o755)
    csv;
  let scale = if quick then Common.quick_scale else Common.full_scale in
  let names = if names = [] then List.map fst exhibits else names in
  let unknown = List.filter (fun n -> not (List.mem_assoc n exhibits)) names in
  if unknown <> [] then begin
    Printf.eprintf "unknown exhibit(s): %s\navailable: %s\n"
      (String.concat ", " unknown)
      (String.concat ", " (List.map fst exhibits));
    exit 2
  end;
  Printf.printf "Whirlpool benchmark harness — %s scale\n" scale.Common.label;
  Printf.printf
    "(defaults: %d-byte document, k=%d; see DESIGN.md for the experiment \
     index)\n"
    scale.Common.default_size scale.Common.default_k;
  let t0 = Whirlpool.Clock.now () in
  List.iter (fun n -> (List.assoc n exhibits) scale) (dedup names);
  Common.close_csv ();
  Printf.printf "\nTotal bench time: %.1fs\n" (Whirlpool.Clock.now () -. t0)

open Cmdliner

let quick =
  Arg.(
    value & flag
    & info [ "quick" ]
        ~doc:
          "Use small documents (fast smoke run) instead of the paper's \
           1Mb/10Mb/50Mb scale.")

let csv =
  Arg.(
    value
    & opt (some string) None
    & info [ "csv" ] ~docv:"DIR"
        ~doc:"Also write every exhibit's rows to CSV files in $(docv).")

let names =
  Arg.(
    value & pos_all string []
    & info [] ~docv:"EXHIBIT"
        ~doc:
          "Exhibits to run: fig3 fig5 fig6 fig7 fig8 fig9 fig10 fig11 table2 \
           scoring queues quality fagin corpus content micro.  \
           Default: all.")

let cmd =
  Cmd.v
    (Cmd.info "bench" ~doc:"regenerate the paper's tables and figures")
    Term.(const run_selected $ quick $ csv $ names)

let () = exit (Cmd.eval cmd)
