module Engine = Whirlpool.Engine
module Config = Whirlpool.Engine.Config

(* Buffering backends (the twig join and both lockstep variants)
   certify nothing mid-run; when the caller asked for streaming, every
   answer of a drained run is final at return, so emit them all then.
   Partial runs emit nothing — their answers carry no certificate. *)
let emit_all ~(config : Config.t) (result : Engine.result) =
  if
    (not (config.Config.on_certified == Engine.no_certify))
    && not result.Engine.partial
  then List.iter config.Config.on_certified result.Engine.answers;
  result

let run ?(config = Config.default) ?guide plan ~k =
  match config.Config.algo with
  | Config.Whirlpool -> Engine.run ~config plan ~k
  | Config.Whirlpool_mt -> Whirlpool.Engine_mt.run ~config plan ~k
  | (Config.Lockstep | Config.Lockstep_noprun) as algo ->
      emit_all ~config
        (Whirlpool.Lockstep.run ~config ~prune:(algo = Config.Lockstep) plan ~k)
  | Config.Twig -> emit_all ~config (Twig_join.run ~config ?guide plan ~k)
