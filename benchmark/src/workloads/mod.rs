//! The six workloads. Each `run` fills `ctx.metrics` and `ctx.tally`.

pub mod graph_case;
pub mod serve_mlp;
pub mod stage_chain;
pub mod treelstm_lantern;
