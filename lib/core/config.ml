open Accals_lac

type t = {
  r_ref : int;
  r_sel : int;
  t_b : float;
  lambda : float;
  l_e : float;
  l_d : float;
  seed : int;
  samples : int;
  exhaustive_limit : int;
  shortlist : int;
  candidate : Candidate_gen.config;
  max_rounds : int;
  use_mis : bool;
  use_random_comparison : bool;
  use_improvement_1 : bool;
  use_improvement_2 : bool;
  exact_estimation : bool;
  incremental : bool;
  jobs : int;
  round_deadline : float option;
  run_deadline : float option;
  validate_rounds : bool;
  audit_every : int;
  certify : bool;
  max_memory_mb : int;
}

let default =
  {
    r_ref = 100;
    r_sel = 20;
    t_b = 0.5;
    lambda = 0.9;
    l_e = 0.9;
    l_d = 0.3;
    seed = 1;
    samples = 2048;
    exhaustive_limit = 14;
    shortlist = 300;
    candidate = Candidate_gen.default_config;
    max_rounds = 10_000;
    use_mis = true;
    use_random_comparison = true;
    use_improvement_1 = true;
    use_improvement_2 = true;
    exact_estimation = true;
    incremental = true;
    jobs = 1;
    round_deadline = None;
    run_deadline = None;
    validate_rounds = false;
    audit_every = 0;
    certify = false;
    max_memory_mb = 0;
  }

let resolve_jobs jobs =
  if jobs > 0 then jobs
  else max 1 (min 64 (Domain.recommended_domain_count ()))

let for_size ?(base = default) aig_nodes =
  let r_ref, r_sel =
    if aig_nodes < 600 then (100, 20)
    else if aig_nodes < 5000 then (200, 40)
    else (400, 80)
  in
  { base with r_ref; r_sel; shortlist = 3 * r_ref }

let for_network ?base net =
  for_size ?base (Accals_network.Cost.aig_node_count net)
