//! Layer-3 extensibility (paper §3): "this design allows the reuse of
//! the Viracocha framework for purposes different from CFD
//! post-processing by simply exchanging this topmost layer."
//!
//! This example registers a custom **cut-plane** command — a classic
//! visualization filter the built-in registry does not ship — without
//! touching the scheduler, workers, DMS or transport.
//!
//! ```text
//! cargo run --example custom_command
//! ```

use std::sync::Arc;
use vira_extract::iso::extract_isosurface;
use vira_grid::field::ScalarField;
use vira_storage::source::SynthSource;
use vira_vista::{CommandParams, SubmitSpec, VistaClient};
use viracocha::command::{Command, CommandError, JobCtx};
use viracocha::{default_registry, Viracocha, ViracochaConfig};

/// Extracts the cut plane `z = z0` through every block of one time step:
/// the iso-contour of the z-coordinate field, triangulated by the same
/// marching-tetrahedra kernel the isosurface commands use.
struct CutPlane;

impl Command for CutPlane {
    fn name(&self) -> &'static str {
        "CutPlane"
    }

    fn execute(&self, ctx: &mut JobCtx<'_>) -> Result<(), CommandError> {
        let z0 = ctx
            .params
            .get_f64("z")
            .ok_or_else(|| CommandError::BadParams("missing parameter 'z'".into()))?;
        let step = ctx.params.get_usize("step").unwrap_or(0) as u32;
        let order: Vec<_> = (0..ctx.spec.n_blocks).collect();
        for id in ctx.my_blocks(step, &order) {
            let data = ctx.load_block(id)?;
            // Scalar field = z coordinate; its iso-contour at z0 is the
            // cut plane restricted to this block.
            let field =
                ScalarField::new(data.dims(), data.grid.points.iter().map(|p| p.z).collect());
            let (soup, _) = extract_isosurface(&data.grid, &field, z0);
            // Merged into the group's one result: `streams()` is false.
            ctx.emit_triangles(&soup)?;
        }
        Ok(())
    }
}

fn main() {
    // Exchange the topmost layer: built-ins plus the custom filter.
    let mut registry = default_registry();
    registry.register(Arc::new(CutPlane));

    let (backend, link) = Viracocha::launch_with_registry(ViracochaConfig::for_tests(2), registry);
    backend.register_dataset(
        Arc::new(SynthSource::new(Arc::new(vira_grid::synth::engine(6)))),
        false,
    );
    let mut client = VistaClient::new(link);

    println!("custom CutPlane command through the mid-height of the Engine cylinder:");
    let out = client
        .run(&SubmitSpec {
            command: "CutPlane".into(),
            dataset: "Engine".into(),
            params: CommandParams::new().set("z", 0.05).set("step", 0),
            workers: 2,
        })
        .expect("cut plane failed");
    let bbox = out.triangles.bbox();
    println!("  triangles : {}", out.triangles.n_triangles());
    println!(
        "  plane bbox: z ∈ [{:.4}, {:.4}] (expect ≈ 0.05 on both ends)",
        bbox.min.z, bbox.max.z
    );
    println!(
        "  area      : {:.6} m² (full annulus ≈ {:.6})",
        out.triangles.area(),
        std::f64::consts::PI * (0.05f64.powi(2) - (0.15 * 0.05f64).powi(2))
    );

    client.shutdown().expect("shutdown");
    backend.join();
}
