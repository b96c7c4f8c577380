//! Minimal hand-rolled SVG emitter for the Figure 4 small-multiples
//! chart: one panel per benchmark, one stacked TP/FP bar per
//! configuration.
//!
//! Visual rules follow the workspace data-viz conventions: a light chart
//! surface, recessive gridlines, thin bars with a rounded data-end and a
//! 2px surface gap between stacked segments, text in ink colors (never the
//! series color), a legend for the two series, and selective direct labels
//! (totals only). The two series hues were validated for CVD separation
//! (ΔE 73.6) against the light surface; the aqua series sits below 3:1
//! contrast, so bars carry visible total labels and the harness always
//! prints the full text table alongside (the "relief rule").

use std::fmt::Write as _;

/// Chart surface color.
const SURFACE: &str = "#fcfcfb";
/// Primary ink.
const INK: &str = "#0b0b0b";
/// Secondary ink.
const INK_2: &str = "#52514e";
/// Recessive gridline color.
const GRID: &str = "#e5e4e0";
/// Series 1 (true positives): categorical slot 1, blue.
const TP_COLOR: &str = "#2a78d6";
/// Series 2 (false positives): categorical slot 2, aqua.
const FP_COLOR: &str = "#1baf7a";

/// One bar of a panel: a configuration's TP/FP split (or `None` when the
/// configuration failed, e.g. CS out of memory).
#[derive(Clone, Debug)]
pub struct BarDatum {
    /// Configuration label (short).
    pub label: String,
    /// `(true positives, false positives)`; `None` = did not complete.
    pub counts: Option<(usize, usize)>,
}

/// One small-multiple panel (a benchmark).
#[derive(Clone, Debug)]
pub struct Panel {
    /// Panel title.
    pub title: String,
    /// Bars in configuration order.
    pub bars: Vec<BarDatum>,
}

/// Renders the full small-multiples figure as an SVG document.
pub fn render_figure(title: &str, panels: &[Panel]) -> String {
    let cols = 3usize;
    let rows = panels.len().div_ceil(cols);
    let panel_w = 290.0;
    let panel_h = 190.0;
    let margin = 24.0;
    let header = 64.0;
    let width = margin * 2.0 + panel_w * cols as f64;
    let height = header + panel_h * rows as f64 + margin;

    let max_total = panels
        .iter()
        .flat_map(|p| &p.bars)
        .filter_map(|b| b.counts.map(|(tp, fp)| tp + fp))
        .max()
        .unwrap_or(1)
        .max(1);

    let mut s = String::new();
    let _ = writeln!(
        s,
        r#"<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" viewBox="0 0 {width} {height}" font-family="system-ui, sans-serif">"#
    );
    let _ = writeln!(s, r#"<rect width="{width}" height="{height}" fill="{SURFACE}"/>"#);
    // Title + legend (two series ⇒ legend required).
    let _ = writeln!(
        s,
        r#"<text x="{margin}" y="26" font-size="15" font-weight="600" fill="{INK}">{title}</text>"#
    );
    let legend_y = 44.0;
    let mut lx = margin;
    for (color, label) in [(TP_COLOR, "true positives"), (FP_COLOR, "false positives")] {
        let _ = writeln!(
            s,
            r#"<rect x="{lx}" y="{y}" width="10" height="10" rx="2" fill="{color}"/>"#,
            y = legend_y - 9.0
        );
        let _ = writeln!(
            s,
            r#"<text x="{x}" y="{legend_y}" font-size="11" fill="{INK_2}">{label}</text>"#,
            x = lx + 14.0
        );
        lx += 14.0 + 7.0 * label.len() as f64 + 18.0;
    }

    for (i, panel) in panels.iter().enumerate() {
        let px = margin + (i % cols) as f64 * panel_w;
        let py = header + (i / cols) as f64 * panel_h;
        render_panel(&mut s, panel, px, py, panel_w - 26.0, panel_h - 42.0, max_total);
    }
    s.push_str("</svg>\n");
    s
}

fn render_panel(s: &mut String, panel: &Panel, x0: f64, y0: f64, w: f64, h: f64, max_total: usize) {
    let _ = writeln!(
        s,
        r#"<text x="{x0}" y="{y}" font-size="12" font-weight="600" fill="{INK}">{t}</text>"#,
        y = y0 + 12.0,
        t = panel.title
    );
    let plot_y = y0 + 20.0;
    let plot_h = h - 34.0;
    // Recessive gridlines at 0 / ½ / max.
    for frac in [0.0, 0.5, 1.0] {
        let gy = plot_y + plot_h * (1.0 - frac);
        let _ = writeln!(
            s,
            r#"<line x1="{x0}" y1="{gy}" x2="{x2}" y2="{gy}" stroke="{GRID}" stroke-width="1"/>"#,
            x2 = x0 + w
        );
        let _ = writeln!(
            s,
            r#"<text x="{x}" y="{y}" font-size="9" fill="{INK_2}" text-anchor="end">{v}</text>"#,
            x = x0 - 4.0,
            y = gy + 3.0,
            v = (max_total as f64 * frac).round() as usize
        );
    }
    let n = panel.bars.len().max(1) as f64;
    let slot = w / n;
    let bar_w = (slot * 0.48).min(18.0);
    for (j, bar) in panel.bars.iter().enumerate() {
        let cx = x0 + slot * (j as f64 + 0.5);
        let bx = cx - bar_w / 2.0;
        match bar.counts {
            Some((tp, fp)) => {
                let scale = plot_h / max_total as f64;
                let tp_h = tp as f64 * scale;
                let fp_h = fp as f64 * scale;
                let base = plot_y + plot_h;
                // TP segment (bottom): flat, anchored to the baseline; the
                // data-end rounding belongs to the topmost segment.
                if tp > 0 {
                    let round_top = if fp == 0 { 3.0 } else { 0.0 };
                    let _ = writeln!(
                        s,
                        "{}",
                        bar_path(bx, base - tp_h, bar_w, tp_h, round_top, TP_COLOR)
                    );
                }
                // 2px surface gap, then the FP segment with the rounded end.
                if fp > 0 {
                    let fy = base - tp_h - 2.0 - fp_h;
                    let _ = writeln!(s, "{}", bar_path(bx, fy, bar_w, fp_h, 3.0, FP_COLOR));
                }
                // Direct total label (relief for the low-contrast series).
                let top = base - tp_h - (if fp > 0 { 2.0 + fp_h } else { 0.0 });
                let _ = writeln!(
                    s,
                    r#"<text x="{cx}" y="{y}" font-size="9" fill="{INK_2}" text-anchor="middle">{v}</text>"#,
                    y = top - 3.0,
                    v = tp + fp
                );
            }
            None => {
                let _ = writeln!(
                    s,
                    r#"<text x="{cx}" y="{y}" font-size="10" fill="{INK_2}" text-anchor="middle">OOM</text>"#,
                    y = plot_y + plot_h - 4.0
                );
            }
        }
        let _ = writeln!(
            s,
            r#"<text x="{cx}" y="{y}" font-size="9" fill="{INK_2}" text-anchor="middle">{l}</text>"#,
            y = plot_y + plot_h + 12.0,
            l = bar.label
        );
    }
}

/// A bar with only the top corners rounded by `r`, anchored flat at the
/// bottom.
fn bar_path(x: f64, y: f64, w: f64, h: f64, r: f64, fill: &str) -> String {
    let r = r.min(h / 2.0).min(w / 2.0);
    if r <= 0.0 {
        return format!(r#"<rect x="{x}" y="{y}" width="{w}" height="{h}" fill="{fill}"/>"#);
    }
    format!(
        r#"<path d="M{x},{yb} L{x},{ytr} Q{x},{y} {xtr},{y} L{xtl},{y} Q{xr},{y} {xr},{ytr} L{xr},{yb} Z" fill="{fill}"/>"#,
        yb = y + h,
        ytr = y + r,
        xtr = x + r,
        xtl = x + w - r,
        xr = x + w,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<Panel> {
        vec![Panel {
            title: "A".into(),
            bars: vec![
                BarDatum { label: "Unb".into(), counts: Some((15, 5)) },
                BarDatum { label: "CS".into(), counts: None },
            ],
        }]
    }

    #[test]
    fn renders_wellformed_svg() {
        let svg = render_figure("Figure 4", &sample());
        assert!(svg.starts_with("<svg"));
        assert!(svg.trim_end().ends_with("</svg>"));
        assert_eq!(svg.matches("<svg").count(), 1);
        assert!(svg.contains("true positives"), "legend present");
        assert!(svg.contains("OOM"), "failed cells are marked");
        assert!(svg.contains(TP_COLOR) && svg.contains(FP_COLOR));
    }

    #[test]
    fn zero_counts_render_no_segments() {
        let panels = vec![Panel {
            title: "Z".into(),
            bars: vec![BarDatum { label: "x".into(), counts: Some((0, 0)) }],
        }];
        let svg = render_figure("t", &panels);
        // Each colour appears once, in its legend swatch: no bar segment.
        assert_eq!(svg.matches(TP_COLOR).count(), 1);
        assert_eq!(svg.matches(FP_COLOR).count(), 1);
        // Total label still present (the zero).
        assert!(svg.contains(">0<"));
    }

    #[test]
    fn bar_path_degenerates_to_rect_without_radius() {
        let p = bar_path(0.0, 0.0, 10.0, 5.0, 0.0, "#000");
        assert!(p.starts_with("<rect"));
        let q = bar_path(0.0, 0.0, 10.0, 5.0, 3.0, "#000");
        assert!(q.starts_with("<path"));
    }
}
