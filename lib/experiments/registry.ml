type experiment = {
  id : string;
  title : string;
  run : quick:bool -> Haf_stats.Table.t list;
}

let all =
  [
    { id = E1_replication.id; title = E1_replication.title; run = E1_replication.run };
    { id = E2_lost_updates.id; title = E2_lost_updates.title; run = E2_lost_updates.run };
    { id = E3_duplicates.id; title = E3_duplicates.title; run = E3_duplicates.run };
    { id = E4_load.id; title = E4_load.title; run = E4_load.run };
    { id = E5_takeover.id; title = E5_takeover.title; run = E5_takeover.run };
    { id = E6_dual_primary.id; title = E6_dual_primary.title; run = E6_dual_primary.run };
    { id = E7_policy.id; title = E7_policy.title; run = E7_policy.run };
    { id = E8_baselines.id; title = E8_baselines.title; run = E8_baselines.run };
    { id = E9_model.id; title = E9_model.title; run = E9_model.run };
    { id = E10_balance.id; title = E10_balance.title; run = E10_balance.run };
    { id = E11_detector.id; title = E11_detector.title; run = E11_detector.run };
    { id = E12_scale.id; title = E12_scale.title; run = E12_scale.run };
    { id = E13_manager.id; title = E13_manager.title; run = E13_manager.run };
    { id = E14_recovery.id; title = E14_recovery.title; run = E14_recovery.run };
    { id = E15_chaos.id; title = E15_chaos.title; run = E15_chaos.run };
    { id = E16_explore.id; title = E16_explore.title; run = E16_explore.run };
    { id = E18_stabilize.id; title = E18_stabilize.title; run = E18_stabilize.run };
  ]

let find id = List.find_opt (fun e -> String.equal e.id id) all
