//! ASCII timeline rendering (the substitute for the paper's Paraver timelines, Figure 7).
//!
//! Every worker becomes one row; time runs left to right; each character cell shows the task
//! label that occupied most of that cell's time slice (its first letter, or a symbol assigned in
//! the legend), `.` when the worker was idle.

use std::collections::BTreeMap;

use crate::TraceEvent;

/// Options for [`render_timeline`].
#[derive(Clone, Debug)]
pub struct TimelineOptions {
    /// Number of character columns.
    pub width: usize,
    /// Show a legend mapping symbols to labels.
    pub legend: bool,
}

impl Default for TimelineOptions {
    fn default() -> Self {
        TimelineOptions {
            width: 100,
            legend: true,
        }
    }
}

const SYMBOLS: &[char] = &[
    'q', 's', 'p', 'a', 'x', 'g', 'o', 'k', 'm', 'r', 'w', 'z', 'b', 'c', 'd', 'e', 'f', 'h',
];

/// Renders an ASCII timeline of the events: one row per worker, one column per time slice.
pub fn render_timeline(events: &[TraceEvent], options: &TimelineOptions) -> String {
    if events.is_empty() {
        return String::from("(empty trace)\n");
    }
    let width = options.width.max(10);
    let start = events.iter().map(|e| e.start_ns).min().unwrap_or(0);
    let end = events.iter().map(|e| e.end_ns).max().unwrap_or(0);
    let span = (end - start).max(1);
    let slice = (span as f64 / width as f64).max(1.0);
    let workers = events.iter().map(|e| e.worker).max().unwrap_or(0) + 1;

    // Assign one symbol per label, stable by first appearance in label order.
    let mut labels: Vec<&str> = events.iter().map(|e| e.label.as_str()).collect();
    labels.sort_unstable();
    labels.dedup();
    let symbol_of: BTreeMap<&str, char> = labels
        .iter()
        .enumerate()
        .map(|(i, &l)| {
            let symbol = l
                .chars()
                .next()
                .filter(|c| c.is_ascii_alphanumeric())
                .unwrap_or(SYMBOLS[i % SYMBOLS.len()]);
            (l, symbol)
        })
        .collect();
    // Disambiguate duplicated first letters by falling back to the symbol table.
    let mut used = std::collections::HashSet::new();
    let mut final_symbols: BTreeMap<&str, char> = BTreeMap::new();
    for (i, (&label, &sym)) in symbol_of.iter().enumerate() {
        let sym = if used.contains(&sym) {
            SYMBOLS[i % SYMBOLS.len()].to_ascii_uppercase()
        } else {
            sym
        };
        used.insert(sym);
        final_symbols.insert(label, sym);
    }

    // busy_per_cell[worker][column][label index] = ns
    let mut cell_owner: Vec<Vec<BTreeMap<&str, u64>>> = vec![vec![BTreeMap::new(); width]; workers];
    for e in events {
        let mut cursor = e.start_ns;
        while cursor < e.end_ns {
            let col = (((cursor - start) as f64 / slice) as usize).min(width - 1);
            let col_end = start + ((col as u64 + 1) as f64 * slice) as u64;
            let piece_end = e.end_ns.min(col_end.max(cursor + 1));
            *cell_owner[e.worker][col]
                .entry(e.label.as_str())
                .or_insert(0) += piece_end - cursor;
            cursor = piece_end;
        }
    }

    let mut out = String::new();
    out.push_str(&format!(
        "timeline: {} workers, {:.3} ms span, {} tasks\n",
        workers,
        span as f64 / 1e6,
        events.len()
    ));
    for (worker, cells) in cell_owner.iter().enumerate() {
        out.push_str(&format!("w{worker:>2} |"));
        for cell in cells {
            let symbol = cell
                .iter()
                .max_by_key(|(_, &ns)| ns)
                .map(|(label, _)| *final_symbols.get(label).unwrap_or(&'?'))
                .unwrap_or('.');
            out.push(symbol);
        }
        out.push_str("|\n");
    }
    if options.legend {
        out.push_str("legend: ");
        let mut first = true;
        for (label, symbol) in &final_symbols {
            if !first {
                out.push_str(", ");
            }
            out.push_str(&format!("{symbol}={label}"));
            first = false;
        }
        out.push_str(", .=idle\n");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(worker: usize, label: &str, start: u64, end: u64) -> TraceEvent {
        TraceEvent {
            worker,
            label: label.to_string(),
            start_ns: start,
            end_ns: end,
        }
    }

    #[test]
    fn empty_trace_renders_placeholder() {
        let s = render_timeline(&[], &TimelineOptions::default());
        assert!(s.contains("empty trace"));
    }

    #[test]
    fn rows_match_workers_and_busy_cells_are_marked() {
        let events = vec![ev(0, "sort", 0, 1000), ev(1, "scan", 500, 1000)];
        let options = TimelineOptions {
            width: 20,
            legend: true,
        };
        let s = render_timeline(&events, &options);
        let lines: Vec<&str> = s.lines().collect();
        // header + 2 workers + legend
        assert_eq!(lines.len(), 4);
        assert!(lines[1].starts_with("w 0 |"));
        assert!(lines[2].starts_with("w 1 |"));
        // Worker 0 is busy the whole time with 'sort': almost every cell is non-idle.
        let row0 = lines[1].trim_start_matches("w 0 |").trim_end_matches('|');
        assert!(row0.chars().filter(|&c| c != '.').count() >= 18);
        // Worker 1 is idle in the first half.
        assert!(lines[2].contains('.'));
        assert!(s.contains("legend"));
    }

    #[test]
    fn duplicate_first_letters_get_distinct_symbols() {
        let events = vec![ev(0, "sort", 0, 100), ev(0, "scan", 100, 200)];
        let s = render_timeline(
            &events,
            &TimelineOptions {
                width: 20,
                legend: true,
            },
        );
        // Legend must contain both labels with two distinct symbols.
        let legend_line = s.lines().last().unwrap();
        assert!(legend_line.contains("=scan") && legend_line.contains("=sort"));
        let symbols: Vec<char> = legend_line
            .split(", ")
            .filter_map(|part| part.trim().chars().next())
            .collect();
        assert_ne!(symbols[0], symbols[1]);
    }
}
