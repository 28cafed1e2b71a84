//! Administrative commands used by the experiment harness.

use crate::command::{Command, CommandError, JobCtx};

/// Empties every group member's proxy caches (and optionally resets
/// learned prefetcher state). Submit with `workers` = the full pool so
/// all proxies participate. Parameters: `reset_prefetcher` ("true" /
/// "false", default false — keeping learned Markov transitions across a
/// cache clear is exactly what the Fig. 14 learning-phase methodology
/// needs).
pub struct ClearCache;

impl Command for ClearCache {
    fn name(&self) -> &'static str {
        "ClearCache"
    }

    fn execute(&self, ctx: &mut JobCtx<'_>) -> Result<(), CommandError> {
        let reset = ctx
            .params
            .get("reset_prefetcher")
            .map(|v| v == "true" || v == "1")
            .unwrap_or(false);
        ctx.proxy.quiesce();
        ctx.proxy.clear_cache(reset);
        ctx.derived.clear();
        Ok(())
    }
}
