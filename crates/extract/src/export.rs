//! Geometry export: Wavefront OBJ and legacy-ASCII VTK writers for the
//! extracted surfaces and particle traces, so results can be inspected
//! in standard tools (ParaView, MeshLab, Blender) — the hand-off a
//! post-processing back-end owes its downstream users.

use crate::mesh::{Polyline, TriangleSoup};
use crate::weld::IndexedMesh;
use std::io::{self, Write};

/// Writes an indexed mesh as Wavefront OBJ (positions, normals, faces).
pub fn write_obj(mesh: &IndexedMesh, w: &mut impl Write) -> io::Result<()> {
    writeln!(
        w,
        "# viracocha export: {} vertices, {} triangles",
        mesh.n_vertices(),
        mesh.n_triangles()
    )?;
    for p in &mesh.positions {
        writeln!(w, "v {} {} {}", p[0], p[1], p[2])?;
    }
    let has_normals = mesh.normals.len() == mesh.positions.len();
    if has_normals {
        for n in &mesh.normals {
            writeln!(w, "vn {} {} {}", n[0], n[1], n[2])?;
        }
    }
    for t in &mesh.triangles {
        // OBJ indices are 1-based.
        if has_normals {
            writeln!(
                w,
                "f {0}//{0} {1}//{1} {2}//{2}",
                t[0] + 1,
                t[1] + 1,
                t[2] + 1
            )?;
        } else {
            writeln!(w, "f {} {} {}", t[0] + 1, t[1] + 1, t[2] + 1)?;
        }
    }
    Ok(())
}

/// Writes an indexed mesh as legacy-ASCII VTK `POLYDATA` (readable by
/// ParaView/VisIt — the toolchain family the paper built on).
pub fn write_vtk_mesh(mesh: &IndexedMesh, title: &str, w: &mut impl Write) -> io::Result<()> {
    writeln!(w, "# vtk DataFile Version 3.0")?;
    writeln!(w, "{}", title.lines().next().unwrap_or("viracocha surface"))?;
    writeln!(w, "ASCII")?;
    writeln!(w, "DATASET POLYDATA")?;
    writeln!(w, "POINTS {} float", mesh.n_vertices())?;
    for p in &mesh.positions {
        writeln!(w, "{} {} {}", p[0], p[1], p[2])?;
    }
    writeln!(
        w,
        "POLYGONS {} {}",
        mesh.n_triangles(),
        mesh.n_triangles() * 4
    )?;
    for t in &mesh.triangles {
        writeln!(w, "3 {} {} {}", t[0], t[1], t[2])?;
    }
    if mesh.normals.len() == mesh.positions.len() && !mesh.normals.is_empty() {
        writeln!(w, "POINT_DATA {}", mesh.n_vertices())?;
        writeln!(w, "NORMALS normals float")?;
        for n in &mesh.normals {
            writeln!(w, "{} {} {}", n[0], n[1], n[2])?;
        }
    }
    Ok(())
}

/// Writes polylines (pathlines / streaklines) as legacy-ASCII VTK
/// `POLYDATA` with the solution time as point data.
pub fn write_vtk_polylines(lines: &[Polyline], title: &str, w: &mut impl Write) -> io::Result<()> {
    let n_points: usize = lines.iter().map(|l| l.len()).sum();
    writeln!(w, "# vtk DataFile Version 3.0")?;
    writeln!(w, "{}", title.lines().next().unwrap_or("viracocha traces"))?;
    writeln!(w, "ASCII")?;
    writeln!(w, "DATASET POLYDATA")?;
    writeln!(w, "POINTS {n_points} float")?;
    for l in lines {
        for p in &l.points {
            writeln!(w, "{} {} {}", p[0], p[1], p[2])?;
        }
    }
    let size: usize = lines.iter().map(|l| l.len() + 1).sum();
    writeln!(w, "LINES {} {}", lines.len(), size)?;
    let mut offset = 0usize;
    for l in lines {
        write!(w, "{}", l.len())?;
        for i in 0..l.len() {
            write!(w, " {}", offset + i)?;
        }
        writeln!(w)?;
        offset += l.len();
    }
    writeln!(w, "POINT_DATA {n_points}")?;
    writeln!(w, "SCALARS time float 1")?;
    writeln!(w, "LOOKUP_TABLE default")?;
    for l in lines {
        for &t in &l.times {
            writeln!(w, "{t}")?;
        }
    }
    Ok(())
}

/// Convenience: weld a soup and write it in the format implied by the
/// file extension (`.obj` or `.vtk`).
pub fn save_soup(soup: &TriangleSoup, path: &std::path::Path) -> io::Result<()> {
    let mesh = crate::weld::weld(soup, 1e-6);
    let f = std::fs::File::create(path)?;
    let mut w = io::BufWriter::new(f);
    match path.extension().and_then(|e| e.to_str()) {
        Some("obj") => write_obj(&mesh, &mut w),
        Some("vtk") => write_vtk_mesh(&mesh, "viracocha surface", &mut w),
        other => Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("unsupported extension {other:?} (use .obj or .vtk)"),
        )),
    }?;
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::weld::weld;
    use vira_grid::math::Vec3;

    fn small_mesh() -> IndexedMesh {
        let mut soup = TriangleSoup::new();
        soup.push_tri(
            Vec3::new(0.0, 0.0, 0.0),
            Vec3::new(1.0, 0.0, 0.0),
            Vec3::new(0.0, 1.0, 0.0),
        );
        soup.push_tri(
            Vec3::new(1.0, 0.0, 0.0),
            Vec3::new(1.0, 1.0, 0.0),
            Vec3::new(0.0, 1.0, 0.0),
        );
        weld(&soup, 1e-6)
    }

    #[test]
    fn obj_structure() {
        let mesh = small_mesh();
        let mut buf = Vec::new();
        write_obj(&mesh, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert_eq!(
            text.matches("\nv ").count() + usize::from(text.starts_with("v ")),
            4
        );
        assert_eq!(text.matches("\nf ").count(), 2);
        assert!(text.contains("vn "));
        // 1-based indices, never index 0.
        assert!(!text.contains("f 0"));
    }

    #[test]
    fn vtk_mesh_structure() {
        let mesh = small_mesh();
        let mut buf = Vec::new();
        write_vtk_mesh(&mesh, "unit test", &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.starts_with("# vtk DataFile Version 3.0"));
        assert!(text.contains("POINTS 4 float"));
        assert!(text.contains("POLYGONS 2 8"));
        assert!(text.contains("NORMALS normals float"));
    }

    #[test]
    fn vtk_polylines_structure() {
        let mut a = Polyline::default();
        a.push(Vec3::ZERO, 0.0);
        a.push(Vec3::new(1.0, 0.0, 0.0), 0.1);
        a.push(Vec3::new(2.0, 0.0, 0.0), 0.2);
        let mut b = Polyline::default();
        b.push(Vec3::new(0.0, 1.0, 0.0), 0.0);
        b.push(Vec3::new(0.0, 2.0, 0.0), 0.3);
        let mut buf = Vec::new();
        write_vtk_polylines(&[a, b], "traces", &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.contains("POINTS 5 float"));
        assert!(text.contains("LINES 2 7"));
        assert!(text.contains("SCALARS time float 1"));
        // Second line's indices continue after the first line's.
        assert!(text.contains("2 3 4"));
    }

    #[test]
    fn save_soup_by_extension() {
        let mut soup = TriangleSoup::new();
        soup.push_tri(
            Vec3::ZERO,
            Vec3::new(1.0, 0.0, 0.0),
            Vec3::new(0.0, 1.0, 0.0),
        );
        let dir = std::env::temp_dir();
        let obj = dir.join(format!("vira_export_{}.obj", std::process::id()));
        let vtk = dir.join(format!("vira_export_{}.vtk", std::process::id()));
        let bad = dir.join(format!("vira_export_{}.stl", std::process::id()));
        save_soup(&soup, &obj).unwrap();
        save_soup(&soup, &vtk).unwrap();
        assert!(save_soup(&soup, &bad).is_err());
        assert!(std::fs::read_to_string(&obj).unwrap().contains("f 1"));
        assert!(std::fs::read_to_string(&vtk).unwrap().contains("POLYDATA"));
        let _ = std::fs::remove_file(obj);
        let _ = std::fs::remove_file(vtk);
    }
}
