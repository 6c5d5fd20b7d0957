module Engine = Accals.Engine

let step =
  {
    Engine.name = "seals";
    shortlist = (fun r -> r.Engine.config.Accals.Config.shortlist);
    select = Engine.single_lac;
  }

let run ?config ?patterns ?pool net ~metric ~error_bound =
  Engine.run ~step ?config ?patterns ?pool net ~metric ~error_bound
