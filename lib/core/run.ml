let compile ?(config = Wp_relax.Relaxation.all) ?normalization idx pattern =
  Plan.compile ?normalization idx config pattern

let top_k ?config ?normalization ?(routing = Strategy.Min_alive) idx pattern
    ~k =
  let plan = compile ?config ?normalization idx pattern in
  Engine.run ~config:Engine.Config.(default |> with_routing routing) plan ~k

let top_k_answers ?config ?normalization ?(routing = Strategy.Min_alive) idx
    pattern ~k =
  let plan = compile ?config ?normalization idx pattern in
  Answer.of_result plan
    (Engine.run ~config:Engine.Config.(default |> with_routing routing) plan ~k)
