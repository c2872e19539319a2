//! Self-contained, deterministic SVG flamegraph renderer.
//!
//! The layout is the classic one: x-extent proportional to cumulative
//! time, one row per stack depth, children packed left-to-right in name
//! order (not time order — stable across runs whose timings jitter).
//! Colors come from an FNV-1a hash of the frame name, so a zone keeps its
//! color across profiles and the output is a pure function of the
//! [`Profile`]'s folded stacks. Hover shows `name (ms, pct%)` via
//! `<title>` — no JavaScript, loads anywhere.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::profile::Profile;

const IMAGE_WIDTH: f64 = 1200.0;
const ROW_HEIGHT: f64 = 17.0;
const FONT_SIZE: f64 = 12.0;
/// Approximate glyph advance for the monospace label font; rects narrower
/// than ~3 glyphs get no text (the `<title>` tooltip still names them).
const GLYPH_WIDTH: f64 = 7.2;
const HEADER_HEIGHT: f64 = 36.0;
/// Rects narrower than this many pixels are culled entirely.
const MIN_RECT_WIDTH: f64 = 0.2;

/// One merge-tree node: cumulative nanoseconds plus name-ordered children.
#[derive(Default)]
struct Node {
    total: u64,
    children: BTreeMap<String, Node>,
}

impl Node {
    fn insert(&mut self, stack: &[String], ns: u64) {
        self.total += ns;
        if let Some((head, rest)) = stack.split_first() {
            self.children
                .entry(head.clone())
                .or_default()
                .insert(rest, ns);
        }
    }

    fn depth(&self) -> usize {
        1 + self.children.values().map(Node::depth).max().unwrap_or(0)
    }
}

/// Warm flamegraph palette derived deterministically from the name's
/// FNV-1a hash: red 205–254, green 50–189, blue 0–54.
fn color(name: &str) -> String {
    let h = crate::fnv1a64(name.as_bytes());
    let r = 205 + (h % 50);
    let g = 50 + ((h >> 8) % 140);
    let b = (h >> 16) % 55;
    format!("rgb({r},{g},{b})")
}

fn xml_escape(s: &str, out: &mut String) {
    for c in s.chars() {
        match c {
            '&' => out.push_str("&amp;"),
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            '"' => out.push_str("&quot;"),
            _ => out.push(c),
        }
    }
}

/// Render `profile` as a standalone SVG flamegraph. Pure function of the
/// folded stacks: identical profiles render byte-identical SVG (golden
/// tested), regardless of insertion order.
pub fn render_flamegraph_svg(profile: &Profile) -> String {
    let mut root = Node::default();
    for (stack, &ns) in &profile.stacks {
        root.insert(stack, ns);
    }
    // Row 0 (bottom) is the synthetic "all" frame; stacks grow upward.
    let depth = root.depth();
    let height = HEADER_HEIGHT + depth as f64 * ROW_HEIGHT + ROW_HEIGHT;
    let mut svg = String::with_capacity(4096);
    let _ = write!(
        svg,
        "<svg version=\"1.1\" width=\"{IMAGE_WIDTH}\" height=\"{height}\" \
         xmlns=\"http://www.w3.org/2000/svg\">\n\
         <style>text {{ font-family: monospace; font-size: {FONT_SIZE}px; fill: #000; }} \
         rect {{ stroke: #ffffff; stroke-width: 0.5; }}</style>\n\
         <rect x=\"0\" y=\"0\" width=\"{IMAGE_WIDTH}\" height=\"{height}\" fill=\"#f8f8f8\"/>\n\
         <text x=\"8\" y=\"22\">szx span flamegraph — {:.3} ms of self time \
         over {} stacks</text>\n",
        profile.total() as f64 * 1e-6,
        profile.stacks.len()
    );
    if root.total > 0 {
        let scale = IMAGE_WIDTH / root.total as f64;
        // Bottom row: everything.
        emit_frame(
            &mut svg,
            "all",
            root.total,
            root.total,
            0.0,
            frame_y(0, depth),
            IMAGE_WIDTH,
        );
        emit_children(&mut svg, &root, 0.0, 1, depth, scale, root.total);
    } else {
        svg.push_str("<text x=\"8\" y=\"52\">(no spans)</text>\n");
    }
    svg.push_str("</svg>\n");
    svg
}

/// y-coordinate for a row: depth 0 at the bottom of the plot area.
fn frame_y(row: usize, total_rows: usize) -> f64 {
    HEADER_HEIGHT + (total_rows - row) as f64 * ROW_HEIGHT
}

fn emit_children(
    svg: &mut String,
    node: &Node,
    mut x: f64,
    row: usize,
    total_rows: usize,
    scale: f64,
    grand_total: u64,
) {
    for (name, child) in &node.children {
        let w = child.total as f64 * scale;
        if w >= MIN_RECT_WIDTH {
            emit_frame(
                svg,
                name,
                child.total,
                grand_total,
                x,
                frame_y(row, total_rows),
                w,
            );
            emit_children(svg, child, x, row + 1, total_rows, scale, grand_total);
        }
        x += w;
    }
}

fn emit_frame(svg: &mut String, name: &str, ns: u64, grand_total: u64, x: f64, y: f64, w: f64) {
    let pct = 100.0 * ns as f64 / grand_total.max(1) as f64;
    let ms = ns as f64 * 1e-6;
    let fill = if name == "all" {
        "rgb(235,235,235)".to_string()
    } else {
        color(name)
    };
    let mut title = String::new();
    xml_escape(name, &mut title);
    let _ = write!(
        svg,
        "<g><title>{title} ({ms:.3} ms, {pct:.2}%)</title>\
         <rect x=\"{x:.2}\" y=\"{y:.2}\" width=\"{w:.2}\" height=\"{ROW_HEIGHT}\" fill=\"{fill}\"/>",
    );
    let max_chars = (w / GLYPH_WIDTH) as usize;
    if max_chars >= 3 {
        let label: String = if name.chars().count() <= max_chars {
            name.to_string()
        } else {
            let cut: String = name.chars().take(max_chars.saturating_sub(2)).collect();
            format!("{cut}..")
        };
        let mut esc = String::new();
        xml_escape(&label, &mut esc);
        let ty = y + ROW_HEIGHT - 4.0;
        let tx = x + 3.0;
        let _ = write!(svg, "<text x=\"{tx:.2}\" y=\"{ty:.2}\">{esc}</text>");
    }
    svg.push_str("</g>\n");
}

#[cfg(test)]
mod tests {
    use super::*;

    fn profile() -> Profile {
        Profile::from_folded(
            "compress.total 5\n\
             compress.total;compress.range_scan 40\n\
             compress.total;compress.encode_blocks 50\n\
             compress.total;compress.encode_blocks;io.write 5\n",
        )
        .unwrap()
    }

    #[test]
    fn svg_is_deterministic_and_well_formed() {
        let p = profile();
        let a = render_flamegraph_svg(&p);
        let b = render_flamegraph_svg(&p);
        assert_eq!(a, b, "pure function of the profile");
        assert!(a.starts_with("<svg "));
        assert!(a.trim_end().ends_with("</svg>"));
        assert_eq!(a.matches("<g>").count(), a.matches("</g>").count());
        // Every named frame appears as a tooltip.
        for name in [
            "all",
            "compress.total",
            "compress.range_scan",
            "compress.encode_blocks",
            "io.write",
        ] {
            assert!(
                a.contains(&format!("<title>{name} (")),
                "missing frame {name}"
            );
        }
    }

    #[test]
    fn widths_are_proportional_to_time() {
        let p = profile();
        let svg = render_flamegraph_svg(&p);
        // 100 ns over 1200px → range_scan (40 cumulative) is 480px.
        assert!(svg.contains("width=\"480.00\""), "{svg}");
        // encode_blocks is 50 self + 5 in its io.write child → 660px.
        assert!(svg.contains("width=\"660.00\""), "{svg}");
    }

    #[test]
    fn stack_order_does_not_matter() {
        // from_folded uses a BTreeMap, so two orderings of the same lines
        // must produce identical SVG.
        let a = Profile::from_folded("x;y 1\na;b 2\n").unwrap();
        let b = Profile::from_folded("a;b 2\nx;y 1\n").unwrap();
        assert_eq!(render_flamegraph_svg(&a), render_flamegraph_svg(&b));
    }

    #[test]
    fn names_are_xml_escaped() {
        let p = Profile::from_folded("a<b>&\"c 3\n").unwrap();
        let svg = render_flamegraph_svg(&p);
        assert!(svg.contains("a&lt;b&gt;&amp;&quot;c"));
        assert!(!svg.contains("<b>"));
    }

    #[test]
    fn empty_profile_renders_placeholder() {
        let svg = render_flamegraph_svg(&Profile::default());
        assert!(svg.contains("(no spans)"));
        assert!(svg.trim_end().ends_with("</svg>"));
    }
}
