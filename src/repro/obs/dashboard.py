"""Self-contained HTML dashboards: run playback and sweep browsing.

Two generators, zero runtime dependencies (no server, no CDN, no
third-party JS — one file you can open from disk or attach to a CI run):

* :func:`render_dashboard` / :func:`write_dashboard` — the **replay
  dashboard**: the frames of one or more :class:`~repro.obs.replay.Replay`
  objects inlined as a JSON island, driven by a playback scrubber over
  four linked canvas views — per-node slot-occupancy heatmap, animated
  src→dst shuffle-flow matrix, stacked stage timeline, and counter
  sparklines — plus the fault/HDFS markers of the current frame.
* :func:`render_sweep_browser` / :func:`write_sweep_browser` — the
  **sweep browser**: every CSV the ``experiments`` exporters wrote
  (``results/*.csv``) charted as lines over its first column, JSON
  export summaries, ``BENCH_scalability.json`` flattened into a
  per-node-count speedup chart, and the bench-history speedup trends
  from ``benchmarks/*.jsonl`` — the cross-run companion to the
  single-run replay view.  Gate failures (fast-vs-reference divergence,
  lost determinism, a speedup ratio dropping past the regression threshold)
  surface as an alert list and highlight the trend chart.
* :func:`render_fleet_page` / :func:`write_fleet_page` — the **fleet
  page**: the :class:`~repro.obs.fleet.FleetSummary` rollup of a
  directory of streamed trace stores as linked tables — per-store
  rows, per-tenant SLO attainment, merged occupancy histograms with
  duration-weighted percentiles — with regression rows flagged.

The JSON island is a ``<script type="application/json">`` block (inert
to the HTML parser; ``</`` is escaped so payload content can never close
it).  All drawing is vanilla canvas; colors live in CSS custom
properties with a validated light and dark step per role.
"""

from __future__ import annotations

import csv
import json
from html import escape
from pathlib import Path
from typing import Iterable, Optional, Sequence, Tuple, Union

from repro._version import __version__
from repro.obs.fleet import FleetSummary, fleet_summary
from repro.obs.metrics import snapshot_rows
from repro.obs.replay import Replay

ReplaySet = Union[Replay, Sequence[Tuple[str, Replay]]]


def _normalize(replays: ReplaySet) -> list[tuple[str, Replay]]:
    if isinstance(replays, Replay):
        return [(replays.system, replays)]
    return list(replays)


def _island(payload: dict) -> str:
    """JSON for inline embedding; ``</`` escaped so the script can't close."""
    return json.dumps(payload, sort_keys=True).replace("</", "<\\/")


#: Shared look: chart-surface + ink + series tokens, light and dark.
_STYLE = """
  :root {
    color-scheme: light dark;
    --surface: #fcfcfb; --panel: #f0efec; --grid: #d9d8d3;
    --ink: #0b0b0b; --ink-2: #52514e;
    --s1: #2a78d6; --s2: #eb6834; --s3: #1baf7a; --s4: #eda100;
    --seq-lo: #cde2fb; --seq-hi: #0d366b; --alert: #e34948;
  }
  @media (prefers-color-scheme: dark) {
    :root {
      --surface: #1a1a19; --panel: #262624; --grid: #383835;
      --ink: #ffffff; --ink-2: #c3c2b7;
      --s1: #3987e5; --s2: #d95926; --s3: #199e70; --s4: #c98500;
      --seq-lo: #10305a; --seq-hi: #9ec5f4; --alert: #e66767;
    }
  }
  * { box-sizing: border-box; }
  body { margin: 0; padding: 16px 20px; background: var(--surface);
         color: var(--ink);
         font: 13px/1.45 system-ui, -apple-system, "Segoe UI", sans-serif; }
  h1 { font-size: 17px; margin: 0 0 2px; }
  h2 { font-size: 13px; font-weight: 600; margin: 0 0 6px; color: var(--ink); }
  .sub { color: var(--ink-2); margin-bottom: 12px; }
  .panel { background: var(--panel); border-radius: 8px; padding: 10px 12px;
           margin-bottom: 12px; }
  canvas { display: block; width: 100%; }
  .row { display: grid; gap: 12px; }
  button { font: inherit; color: var(--ink); background: var(--surface);
           border: 1px solid var(--grid); border-radius: 6px;
           padding: 3px 12px; cursor: pointer; }
  button.on { border-color: var(--s1); color: var(--s1); font-weight: 600; }
  .legend { display: flex; gap: 14px; flex-wrap: wrap; color: var(--ink-2);
            font-size: 12px; margin-top: 4px; }
  .legend span::before { content: ""; display: inline-block; width: 10px;
            height: 10px; border-radius: 3px; margin-right: 5px;
            vertical-align: -1px; background: var(--c); }
  #tip { position: fixed; pointer-events: none; background: var(--panel);
         color: var(--ink); border: 1px solid var(--grid); border-radius: 6px;
         padding: 5px 8px; font-size: 12px; display: none; z-index: 10;
         max-width: 320px; }
  table { border-collapse: collapse; font-size: 12px; }
  td, th { padding: 2px 10px 2px 0; text-align: right; color: var(--ink-2); }
  th { color: var(--ink); }
  details summary { cursor: pointer; color: var(--ink-2); font-size: 12px; }
"""

_DASHBOARD_JS = r"""
const DATA = JSON.parse(document.getElementById('replay-data').textContent);
const SYS = Object.keys(DATA.systems);
let cur = SYS[0], fi = 0, playing = false, timer = null;
const css = n => getComputedStyle(document.documentElement)
  .getPropertyValue(n).trim();
const S = () => DATA.systems[cur];
const F = () => S().frames[fi];
const fmtB = b => b >= 1<<30 ? (b/(1<<30)).toFixed(2)+' GB'
  : b >= 1<<20 ? (b/(1<<20)).toFixed(1)+' MB'
  : b >= 1024 ? (b/1024).toFixed(1)+' KB' : b.toFixed(0)+' B';
const tip = document.getElementById('tip');
function showTip(ev, html) {
  tip.innerHTML = html; tip.style.display = 'block';
  tip.style.left = Math.min(ev.clientX + 12, innerWidth - 330) + 'px';
  tip.style.top = (ev.clientY + 12) + 'px';
}
function hideTip() { tip.style.display = 'none'; }

function mix(a, b, t) {  // hex lerp for the sequential ramp
  const pa = [1,3,5].map(i => parseInt(a.slice(i,i+2),16));
  const pb = [1,3,5].map(i => parseInt(b.slice(i,i+2),16));
  return 'rgb(' + pa.map((v,i) => Math.round(v+(pb[i]-v)*t)).join(',') + ')';
}
const seq = t => mix(css('--seq-lo'), css('--seq-hi'),
                     Math.max(0, Math.min(1, t)));

function sized(id, h) {
  const c = document.getElementById(id);
  const w = c.clientWidth || c.parentNode.clientWidth || 600;
  const r = devicePixelRatio || 1;
  c.width = w * r; c.height = h * r; c.style.height = h + 'px';
  const g = c.getContext('2d');
  g.setTransform(r, 0, 0, r, 0, 0);
  g.clearRect(0, 0, w, h);
  return [c, g, w, h];
}

// ---- view 1: cluster heatmap (nodes x frames, occupancy) -------------------
function maxSlots() {
  let m = 1;
  for (const n of S().nodes) {
    const o = S().max_occupancy[n] || {};
    m = Math.max(m, (o.map || 0) + (o.reduce || 0));
  }
  return m;
}
function drawHeatmap() {
  const s = S(), nodes = s.nodes, nf = s.frames.length;
  const rowH = Math.max(14, Math.min(22, 200 / Math.max(1, nodes.length)));
  const labelW = 52, h = nodes.length * rowH + 18;
  const [c, g, w] = sized('view-heatmap', h);
  const cw = (w - labelW) / nf, cap = maxSlots();
  g.font = '11px system-ui'; g.textBaseline = 'middle';
  nodes.forEach((node, r) => {
    g.fillStyle = css('--ink-2');
    g.textAlign = 'right';
    g.fillText(node, labelW - 6, r * rowH + rowH / 2);
    for (let b = 0; b < nf; b++) {
      const f = s.frames[b];
      const occ = (f.node_map[node] || 0) + (f.node_reduce[node] || 0);
      g.fillStyle = occ > 0 ? seq(occ / cap) : css('--panel');
      g.fillRect(labelW + b * cw, r * rowH + 1,
                 Math.max(cw - 0.5, 0.5), rowH - 2);
    }
  });
  // cursor
  g.fillStyle = css('--alert');
  g.fillRect(labelW + fi * cw, 0, Math.max(cw * 0.25, 1.5),
             nodes.length * rowH);
  g.fillStyle = css('--ink-2'); g.textAlign = 'left';
  g.fillText('0s', labelW, nodes.length * rowH + 9);
  g.textAlign = 'right';
  g.fillText(s.t_end.toFixed(1) + 's', w - 2, nodes.length * rowH + 9);
  c.onmousemove = ev => {
    const rect = c.getBoundingClientRect();
    const b = Math.floor((ev.clientX - rect.left - labelW) / cw);
    const r = Math.floor((ev.clientY - rect.top) / rowH);
    if (b < 0 || b >= nf || r < 0 || r >= nodes.length) { hideTip(); return; }
    const f = s.frames[b], node = nodes[r];
    showTip(ev, '<b>' + node + '</b> @ ' + f.t0.toFixed(1) + 's<br>map slots: '
      + (f.node_map[node] || 0).toFixed(2) + '<br>reduce slots: '
      + (f.node_reduce[node] || 0).toFixed(2));
  };
  c.onmouseleave = hideTip;
  c.onclick = ev => {
    const rect = c.getBoundingClientRect();
    const b = Math.floor((ev.clientX - rect.left - labelW) / cw);
    if (b >= 0 && b < nf) seek(b);
  };
}

// ---- view 2: shuffle flow matrix (src -> dst, current frame) ---------------
function drawFlows() {
  const s = S(), nodes = s.nodes, n = Math.max(1, nodes.length);
  let peak = 1;
  for (const f of s.frames)
    for (const k in f.flows) peak = Math.max(peak, f.flows[k]);
  const labelW = 52, cell = Math.max(12, Math.min(26, 210 / n));
  const h = n * cell + 24;
  const [c, g] = sized('view-flows', h);
  g.font = '10px system-ui'; g.textBaseline = 'middle';
  const f = F();
  nodes.forEach((src, r) => {
    g.fillStyle = css('--ink-2'); g.textAlign = 'right';
    g.fillText(src, labelW - 6, 14 + r * cell + cell / 2);
    nodes.forEach((dst, col) => {
      const v = f.flows[src + '>' + dst] || 0;
      g.fillStyle = v > 0 ? seq(Math.log1p(v) / Math.log1p(peak))
                          : css('--panel');
      g.fillRect(labelW + col * cell, 14 + r * cell,
                 cell - 2, cell - 2);
    });
  });
  g.fillStyle = css('--ink-2'); g.textAlign = 'center';
  nodes.forEach((dst, col) => {
    g.fillText(dst.replace('node', 'n'),
               labelW + col * cell + cell / 2, 7);
  });
  c.onmousemove = ev => {
    const rect = c.getBoundingClientRect();
    const col = Math.floor((ev.clientX - rect.left - labelW) / cell);
    const r = Math.floor((ev.clientY - rect.top - 14) / cell);
    if (col < 0 || col >= n || r < 0 || r >= n) { hideTip(); return; }
    const v = F().flows[nodes[r] + '>' + nodes[col]] || 0;
    showTip(ev, nodes[r] + ' &rarr; ' + nodes[col] + '<br>in flight: '
            + fmtB(v));
  };
  c.onmouseleave = hideTip;
}

// ---- view 3: stage timeline (stacked area over frames) ---------------------
const STAGES = ['map', 'copy', 'sort', 'reduce'];
const STAGE_C = ['--s1', '--s2', '--s3', '--s4'];
function drawStages() {
  const s = S(), nf = s.frames.length, h = 120;
  const [c, g, w] = sized('view-stages', h);
  let peak = 1;
  for (const f of s.frames) {
    let tot = 0;
    for (const st of STAGES) tot += f.stages[st] || 0;
    peak = Math.max(peak, tot);
  }
  const cw = w / nf;
  for (let b = 0; b < nf; b++) {
    const f = s.frames[b];
    let y = h - 14;
    STAGES.forEach((st, i) => {
      const v = (f.stages[st] || 0) / peak * (h - 20);
      if (v <= 0) return;
      g.fillStyle = css(STAGE_C[i]);
      g.fillRect(b * cw, y - v, Math.max(cw - 0.5, 0.5), v);
      y -= v + 1;  // 1px surface gap between stacked segments
    });
  }
  g.fillStyle = css('--alert');
  g.fillRect(fi * cw, 0, Math.max(cw * 0.25, 1.5), h - 14);
  g.font = '11px system-ui'; g.fillStyle = css('--ink-2');
  g.textAlign = 'left'; g.textBaseline = 'middle';
  g.fillText('peak ' + peak.toFixed(0) + ' live phases', 4, h - 7);
  c.onmousemove = ev => {
    const rect = c.getBoundingClientRect();
    const b = Math.floor((ev.clientX - rect.left) / cw);
    if (b < 0 || b >= nf) { hideTip(); return; }
    const f = s.frames[b];
    showTip(ev, '<b>' + f.t0.toFixed(1) + 's</b><br>' + STAGES.map((st, i) =>
      '<span style="color:' + css(STAGE_C[i]) + '">&#9632;</span> ' + st
      + ' ' + (f.stages[st] || 0).toFixed(2)).join('<br>'));
  };
  c.onmouseleave = hideTip;
  c.onclick = ev => {
    const rect = c.getBoundingClientRect();
    seek(Math.floor((ev.clientX - rect.left) / cw));
  };
}

// ---- view 4: counter sparklines -------------------------------------------
const SPARKS = [
  ['spark-inflight', 'in-flight shuffle bytes', f => f.inflight_bytes, fmtB],
  ['spark-delivered', 'bytes delivered (cumulative)',
   f => f.bytes_delivered, fmtB],
  ['spark-links', 'mean link utilization', f => {
    const ks = Object.keys(f.links);
    const all = S().links.length || 1;
    return ks.reduce((a, k) => a + f.links[k], 0) / all;
  }, v => (100 * v).toFixed(1) + '%'],
  ['spark-markers', 'faults / HDFS events', f => f.marker_count,
   v => v.toFixed(0)],
];
function drawSparks() {
  const s = S(), nf = s.frames.length;
  SPARKS.forEach(([id, label, get, fmt]) => {
    const vals = s.frames.map(get);
    const peak = Math.max(1e-12, ...vals);
    const [c, g, w, h] = sized(id, 44);
    const cw = w / nf;
    g.fillStyle = css('--s1');
    if (id === 'spark-markers') {       // discrete events: bars, not a line
      vals.forEach((v, b) => {
        if (v > 0) {
          g.fillStyle = css('--alert');
          const bh = Math.max(2, v / peak * (h - 16));
          g.fillRect(b * cw, h - 12 - bh, Math.max(cw - 0.5, 1), bh);
        }
      });
    } else {
      g.strokeStyle = css('--s1'); g.lineWidth = 2; g.beginPath();
      vals.forEach((v, b) => {
        const x = b * cw + cw / 2, y = h - 12 - v / peak * (h - 18);
        b === 0 ? g.moveTo(x, y) : g.lineTo(x, y);
      });
      g.stroke();
    }
    g.fillStyle = css('--alert');
    g.fillRect(fi * cw, 0, Math.max(cw * 0.25, 1.5), h - 12);
    g.font = '10px system-ui'; g.fillStyle = css('--ink-2');
    g.textAlign = 'left'; g.textBaseline = 'middle';
    g.fillText(label + ' — ' + fmt(get(F())), 2, h - 5);
    c.onclick = ev => {
      const rect = c.getBoundingClientRect();
      seek(Math.floor((ev.clientX - rect.left) / cw));
    };
  });
}

// ---- playback --------------------------------------------------------------
function drawMarkers() {
  const el = document.getElementById('markers-list');
  const f = F();
  if (!f.marker_count) { el.textContent = 'no fault/HDFS events in this frame';
                         return; }
  const more = f.marker_count - f.markers.length;
  el.innerHTML = f.markers.map(m =>
    '<b>' + m.t.toFixed(2) + 's</b> [' + m.cat + '] ' + m.name)
    .join('<br>') + (more > 0 ? '<br>&hellip; ' + more + ' more' : '');
}
function redraw() {
  const f = F();
  document.getElementById('tlabel').textContent =
    f.t0.toFixed(1) + 's – ' + f.t1.toFixed(1) + 's (frame ' + (fi + 1)
    + '/' + S().frames.length + ')';
  drawHeatmap(); drawFlows(); drawStages(); drawSparks(); drawMarkers();
}
function seek(b) {
  fi = Math.max(0, Math.min(S().frames.length - 1, b));
  document.getElementById('scrub').value = fi;
  redraw();
}
function setSystem(name) {
  cur = name; fi = Math.min(fi, S().frames.length - 1);
  const scrub = document.getElementById('scrub');
  scrub.max = S().frames.length - 1; scrub.value = fi;
  document.querySelectorAll('#sys-select button').forEach(b =>
    b.classList.toggle('on', b.textContent === name));
  redraw();
}
function play(on) {
  playing = on === undefined ? !playing : on;
  document.getElementById('play').textContent = playing
    ? '❚❚ pause' : '▶ play';
  clearInterval(timer);
  if (playing) timer = setInterval(() => {
    if (fi >= S().frames.length - 1) { play(false); return; }
    seek(fi + 1);
  }, 90);
}

const sysBar = document.getElementById('sys-select');
SYS.forEach(name => {
  const b = document.createElement('button');
  b.textContent = name;
  b.onclick = () => setSystem(name);
  sysBar.appendChild(b);
});
document.getElementById('scrub')
  .addEventListener('input', ev => seek(+ev.target.value));
document.getElementById('play').onclick = () => play();
document.addEventListener('keydown', ev => {
  if (ev.key === ' ') { ev.preventDefault(); play(); }
  if (ev.key === 'ArrowRight') seek(fi + 1);
  if (ev.key === 'ArrowLeft') seek(fi - 1);
});
addEventListener('resize', redraw);
matchMedia('(prefers-color-scheme: dark)').addEventListener('change', redraw);
setSystem(cur);
"""


def render_dashboard(
    replays: ReplaySet,
    title: str = "repro replay",
    manifest=None,
) -> str:
    """One self-contained HTML page over the given replays."""
    pairs = _normalize(replays)
    if not pairs:
        raise ValueError("no replays to render")
    payload = {
        "title": title,
        "version": __version__,
        "manifest": (
            manifest.to_dict() if hasattr(manifest, "to_dict") else manifest
        ),
        "systems": {name: r.to_dict() for name, r in pairs},
    }
    sub_bits = []
    for name, r in pairs:
        sub_bits.append(
            f"{name}: {r.t_end:.1f}s simulated, {len(r.frames)} frames, "
            f"{len(r.nodes)} nodes, {r.spans_seen} spans"
        )
    legend = (
        '<div class="legend">'
        '<span style="--c: var(--s1)">map</span>'
        '<span style="--c: var(--s2)">copy</span>'
        '<span style="--c: var(--s3)">sort</span>'
        '<span style="--c: var(--s4)">reduce</span>'
        "</div>"
    )
    return f"""<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<meta name="viewport" content="width=device-width, initial-scale=1">
<title>{title}</title>
<style>{_STYLE}</style>
</head>
<body>
<h1>{title}</h1>
<div class="sub">{" &middot; ".join(sub_bits)}</div>
<div class="panel">
  <div style="display:flex; gap:10px; align-items:center; flex-wrap:wrap">
    <span id="sys-select" style="display:flex; gap:6px"></span>
    <button id="play">&#9654; play</button>
    <input id="scrub" type="range" min="0" max="1" value="0"
           style="flex:1; min-width:200px">
    <span id="tlabel" style="color:var(--ink-2); min-width:180px"></span>
  </div>
</div>
<div class="row" style="grid-template-columns: 2fr 1fr">
  <div class="panel">
    <h2>Cluster heatmap &mdash; occupied task slots per node</h2>
    <canvas id="view-heatmap"></canvas>
  </div>
  <div class="panel">
    <h2>Shuffle flows &mdash; in-flight bytes src&rarr;dst</h2>
    <canvas id="view-flows"></canvas>
  </div>
</div>
<div class="panel">
  <h2>Stage timeline &mdash; live phases</h2>
  <canvas id="view-stages"></canvas>
  {legend}
</div>
<div class="row" style="grid-template-columns: 1fr 1fr">
  <div class="panel">
    <h2>Counters</h2>
    <canvas id="spark-inflight"></canvas>
    <canvas id="spark-delivered"></canvas>
    <canvas id="spark-links"></canvas>
    <canvas id="spark-markers"></canvas>
  </div>
  <div class="panel">
    <h2>Events in frame</h2>
    <div id="markers-list" style="color:var(--ink-2); font-size:12px"></div>
  </div>
</div>
<div id="tip"></div>
<script type="application/json" id="replay-data">{_island(payload)}</script>
<script>{_DASHBOARD_JS}</script>
</body>
</html>
"""


def write_dashboard(
    path: Union[str, Path],
    replays: ReplaySet,
    title: str = "repro replay",
    manifest=None,
) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(render_dashboard(replays, title=title, manifest=manifest))
    return path


def extract_data_island(html: str, island_id: str = "replay-data") -> dict:
    """Parse the JSON island back out of a rendered page (for tests/CI)."""
    needle = f'id="{island_id}">'
    start = html.index(needle) + len(needle)
    end = html.index("</script>", start)
    return json.loads(html[start:end].replace("<\\/", "</"))


# -- sweep browser ------------------------------------------------------------

#: CSV cells kept per file (beyond this the table is truncated, counted).
_SWEEP_MAX_ROWS = 400

_SWEEP_JS = r"""
const DATA = JSON.parse(document.getElementById('sweep-data').textContent);
const css = n => getComputedStyle(document.documentElement)
  .getPropertyValue(n).trim();
const SLOTS = ['--s1', '--s2', '--s3', '--s4'];
const tip = document.getElementById('tip');
function showTip(ev, html) {
  tip.innerHTML = html; tip.style.display = 'block';
  tip.style.left = Math.min(ev.clientX + 12, innerWidth - 330) + 'px';
  tip.style.top = (ev.clientY + 12) + 'px';
}
function numericSeries(table) {
  // first column = x; every later column that parses as numbers = a series
  const cols = table.header.length;
  const out = [];
  for (let c = 1; c < cols && out.length < 4; c++) {
    const vals = table.rows.map(r => r[c]);
    if (vals.some(v => v === '' || v === null || isNaN(+v))) continue;
    out.push({name: table.header[c], vals: vals.map(Number)});
  }
  return out;
}
function drawChart(canvas, table) {
  const series = numericSeries(table);
  const xs = table.rows.map(r => +r[0]);
  const w = canvas.clientWidth || 560, h = 150, r = devicePixelRatio || 1;
  canvas.width = w * r; canvas.height = h * r;
  canvas.style.height = h + 'px';
  const g = canvas.getContext('2d');
  g.setTransform(r, 0, 0, r, 0, 0);
  if (!series.length || xs.some(isNaN)) {
    g.font = '12px system-ui'; g.fillStyle = css('--ink-2');
    g.fillText('no numeric series to chart — see table below', 8, 20);
    return;
  }
  const x0 = Math.min(...xs), x1 = Math.max(...xs);
  let vmax = -Infinity, vmin = Infinity;
  series.forEach(s => s.vals.forEach(v => {
    vmax = Math.max(vmax, v); vmin = Math.min(vmin, v); }));
  if (vmin > 0) vmin = 0;
  const px = x => 40 + (x1 > x0 ? (x - x0) / (x1 - x0) : 0.5) * (w - 50);
  const py = v => 8 + (1 - (v - vmin) / (vmax - vmin || 1)) * (h - 28);
  g.strokeStyle = css('--grid'); g.lineWidth = 1;
  g.beginPath(); g.moveTo(40, py(0)); g.lineTo(w - 8, py(0)); g.stroke();
  series.forEach((s, i) => {
    g.strokeStyle = css(SLOTS[i]); g.lineWidth = 2; g.beginPath();
    s.vals.forEach((v, j) =>
      j === 0 ? g.moveTo(px(xs[j]), py(v)) : g.lineTo(px(xs[j]), py(v)));
    g.stroke();
    s.vals.forEach((v, j) => {
      g.fillStyle = css(SLOTS[i]);
      g.beginPath(); g.arc(px(xs[j]), py(v), 3, 0, 7); g.fill();
    });
  });
  g.font = '10px system-ui'; g.fillStyle = css('--ink-2');
  g.textAlign = 'left';
  g.fillText(String(x0), 40, h - 4);
  g.textAlign = 'right';
  g.fillText(String(x1), w - 8, h - 4);
  g.save(); g.textAlign = 'left';
  g.fillText(vmax.toPrecision(4), 2, 14); g.fillText(vmin.toPrecision(3), 2, h - 16);
  g.restore();
  canvas.onmousemove = ev => {
    const rect = canvas.getBoundingClientRect();
    const mx = ev.clientX - rect.left;
    let best = 0, dist = Infinity;
    xs.forEach((x, j) => {
      const d = Math.abs(px(x) - mx);
      if (d < dist) { dist = d; best = j; }
    });
    showTip(ev, '<b>' + table.header[0] + ' = ' + xs[best] + '</b><br>'
      + series.map((s, i) => '<span style="color:' + css(SLOTS[i])
        + '">&#9632;</span> ' + s.name + ': ' + s.vals[best]).join('<br>'));
  };
  canvas.onmouseleave = () => { tip.style.display = 'none'; };
}
const root = document.getElementById('charts');
for (const name of Object.keys(DATA.csv).sort()) {
  const table = DATA.csv[name];
  const panel = document.createElement('div');
  panel.className = 'panel';
  const series = numericSeries(table);
  panel.innerHTML = '<h2>' + name + '</h2>'
    + '<canvas></canvas>'
    + '<div class="legend">' + series.map((s, i) =>
        '<span style="--c: var(' + SLOTS[i] + ')">' + s.name + '</span>')
        .join('') + '</div>'
    + '<details><summary>table (' + table.rows.length + ' rows'
    + (table.truncated ? ', truncated' : '') + ')</summary>'
    + '<table><tr>' + table.header.map(x => '<th>' + x + '</th>').join('')
    + '</tr>' + table.rows.map(row => '<tr>' + row.map(x =>
        '<td>' + x + '</td>').join('') + '</tr>').join('')
    + '</table></details>';
  root.appendChild(panel);
  drawChart(panel.querySelector('canvas'), table);
}
const bench = document.getElementById('bench');
const entries = DATA.bench;
if (!entries.length) {
  bench.parentNode.style.display = 'none';
} else {
  const metrics = {};
  entries.forEach((e, i) => {
    for (const k in e.metrics) {
      if (!k.endsWith('.speedup')) continue;
      (metrics[k] = metrics[k] || []).push([i, e.metrics[k], e]);
    }
  });
  for (const k of Object.keys(metrics).sort()) {
    const row = document.createElement('div');
    row.innerHTML = '<h2>' + k + '</h2><canvas></canvas>';
    bench.appendChild(row);
    const pts = metrics[k];
    const c = row.querySelector('canvas');
    const w = c.clientWidth || 560, h = 60, r2 = devicePixelRatio || 1;
    c.width = w * r2; c.height = h * r2; c.style.height = h + 'px';
    const g = c.getContext('2d');
    g.setTransform(r2, 0, 0, r2, 0, 0);
    const vmax = Math.max(...pts.map(p => p[1]), 1e-9);
    g.strokeStyle = css('--s1'); g.lineWidth = 2; g.beginPath();
    pts.forEach(([i, v], j) => {
      const x = 8 + (pts.length > 1 ? j / (pts.length - 1) : 0.5) * (w - 70);
      const y = h - 8 - v / vmax * (h - 20);
      j === 0 ? g.moveTo(x, y) : g.lineTo(x, y);
    });
    g.stroke();
    g.font = '11px system-ui'; g.textAlign = 'right';
    g.textBaseline = 'middle';
    const last = pts[pts.length - 1][1];
    const prev = pts.length > 1 ? pts[pts.length - 2][1] : last;
    // regression gate: highlight when the latest ratio dropped >10%
    const gated = last < prev * 0.9;
    g.fillStyle = gated ? css('--alert') : css('--ink-2');
    g.fillText(last.toFixed(2) + 'x' + (gated ? ' ▼' : ''),
               w - 4, h - 8 - last / vmax * (h - 20));
  }
}
"""


#: Run-over-run ``.speedup`` drop past this factor is flagged as an alert.
_BENCH_REGRESSION_THRESHOLD = 0.10


def _scalability_table(payload: dict) -> Optional[dict]:
    """Flatten ``BENCH_scalability.json`` into a chartable speedup table."""
    per_nodes = payload.get("per_nodes") or {}
    if not per_nodes:
        return None
    kinds = sorted({k for legs in per_nodes.values() for k in legs})
    header = ["nodes"] + [f"{kind}.speedup" for kind in kinds]
    rows = []
    for nodes in sorted(per_nodes, key=lambda n: int(n)):
        legs = per_nodes[nodes]
        row = [nodes]
        for kind in kinds:
            leg = legs.get(kind) or {}
            sp = leg.get("speedup")
            row.append(f"{sp:.4f}" if isinstance(sp, (int, float)) else "")
        rows.append(row)
    return {"header": header, "rows": rows, "truncated": False}


def _scalability_alerts(name: str, payload: dict) -> list[str]:
    """Gate failures recorded inside a scalability bench export."""
    alerts: list[str] = []
    per_nodes = payload.get("per_nodes") or {}
    for nodes in sorted(per_nodes, key=lambda n: int(n)):
        for kind in sorted(per_nodes[nodes]):
            leg = per_nodes[nodes][kind] or {}
            where = f"{name}: {kind} @ {nodes} nodes"
            if leg.get("identical") is False:
                alerts.append(f"{where} — fast and reference solvers diverged")
            if leg.get("deterministic") is False:
                alerts.append(f"{where} — fast run not deterministic")
    if payload.get("identical") is False:
        alerts.append(f"{name} — solver divergence (overall)")
    if payload.get("deterministic") is False:
        alerts.append(f"{name} — determinism lost (overall)")
    return alerts


def _bench_history_alerts(
    entries: list[dict], threshold: float = _BENCH_REGRESSION_THRESHOLD
) -> list[str]:
    """Consecutive-entry ``.speedup`` regressions across bench history."""
    alerts: list[str] = []
    series: dict[str, list[tuple[float, dict]]] = {}
    for entry in entries:
        for key, value in (entry.get("metrics") or {}).items():
            if isinstance(value, (int, float)):
                series.setdefault(key, []).append((float(value), entry))
    for key in sorted(series):
        pts = series[key]
        for (before, _), (after, entry) in zip(pts, pts[1:]):
            if before > 0 and after < before * (1.0 - threshold):
                rev = entry.get("git_rev") or "?"
                alerts.append(
                    f"bench {key} regressed {before:.2f}x -> {after:.2f}x "
                    f"at {rev}"
                )
    return alerts


def build_sweep_data(
    results_dir: Optional[Union[str, Path]] = None,
    bench_histories: Iterable[Union[str, Path]] = (),
    max_rows: int = _SWEEP_MAX_ROWS,
) -> dict:
    """Collect the sweep browser's payload from files already on disk.

    Reads the ``experiments`` CSV/JSON exports in ``results_dir`` (the
    multi-tenant sweep's ``multi_tenant.csv``/``.json`` land here like
    every other experiment), any bench-history JSONL files, and — when
    present — ``BENCH_scalability.json``, whose per-node-count legs
    flatten into a speedup table charted like a CSV sweep.  Nothing is
    re-run.  Oversize CSVs are truncated (flagged ``truncated``), JSON
    exports contribute a shallow summary, and every gate failure or
    run-over-run speedup regression lands in ``alerts``.
    """
    data: dict = {"csv": {}, "json": {}, "bench": [], "alerts": []}
    if results_dir is not None:
        results_dir = Path(results_dir)
        for path in sorted(results_dir.glob("*.csv")):
            with path.open() as fh:
                rows = list(csv.reader(fh))
            if not rows:
                continue
            table = {
                "header": rows[0],
                "rows": rows[1 : max_rows + 1],
                "truncated": len(rows) - 1 > max_rows,
            }
            data["csv"][path.name] = table
        for path in sorted(results_dir.glob("*.json")):
            try:
                with path.open() as fh:
                    payload = json.load(fh)
            except (OSError, json.JSONDecodeError):
                continue
            if isinstance(payload, dict):
                data["json"][path.name] = {
                    "experiment": payload.get("experiment"),
                    "keys": sorted(payload)[:24],
                }
                if "per_nodes" in payload and path.name.startswith("BENCH_"):
                    table = _scalability_table(payload)
                    if table is not None:
                        data["csv"][path.name] = table
                    data["alerts"].extend(
                        _scalability_alerts(path.name, payload)
                    )
    for hist in bench_histories:
        hist = Path(hist)
        if not hist.exists():
            continue
        with hist.open() as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                try:
                    entry = json.loads(line)
                except json.JSONDecodeError:
                    continue
                data["bench"].append(
                    {
                        "created_at": entry.get("created_at"),
                        "git_rev": (entry.get("git_rev") or "")[:10],
                        "metrics": {
                            k: v
                            for k, v in (entry.get("metrics") or {}).items()
                            if k.endswith(".speedup")
                        },
                    }
                )
    data["alerts"].extend(_bench_history_alerts(data["bench"]))
    return data


def render_sweep_browser(
    sweep_data: dict, title: str = "repro sweep browser"
) -> str:
    """The cross-run page: one chart+table per exported CSV, bench trends."""
    n_csv = len(sweep_data.get("csv", {}))
    n_bench = len(sweep_data.get("bench", []))
    json_list = "".join(
        f"<li><b>{name}</b> — {meta.get('experiment') or '?'} "
        f"({len(meta.get('keys', []))} top-level keys)</li>"
        for name, meta in sorted(sweep_data.get("json", {}).items())
    )
    alerts = sweep_data.get("alerts", [])
    alert_panel = ""
    if alerts:
        items = "".join(f"<li>{escape(str(a))}</li>" for a in alerts)
        alert_panel = (
            '<div class="panel">'
            '<h2 style="color:var(--alert)">Regressions &amp; gate failures'
            f"</h2><ul style=\"color:var(--alert)\">{items}</ul></div>"
        )
    return f"""<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<meta name="viewport" content="width=device-width, initial-scale=1">
<title>{title}</title>
<style>{_STYLE}</style>
</head>
<body>
<h1>{title}</h1>
<div class="sub">{n_csv} exported sweeps &middot; {n_bench} bench history
entries &middot; generated by repro {__version__}</div>
{alert_panel}
<div id="charts"></div>
<div class="panel">
  <h2>JSON exports</h2>
  <ul style="color:var(--ink-2)">{json_list or "<li>none found</li>"}</ul>
</div>
<div class="panel">
  <h2>Bench speedup history</h2>
  <div id="bench"></div>
</div>
<div id="tip"></div>
<script type="application/json" id="sweep-data">{_island(sweep_data)}</script>
<script>{_SWEEP_JS}</script>
</body>
</html>
"""


def write_sweep_browser(
    path: Union[str, Path],
    results_dir: Optional[Union[str, Path]] = None,
    bench_histories: Iterable[Union[str, Path]] = (),
    title: str = "repro sweep browser",
) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    data = build_sweep_data(results_dir, bench_histories)
    path.write_text(render_sweep_browser(data, title=title))
    return path


# -- fleet page ---------------------------------------------------------------


def _cell(value) -> str:
    """One table cell; floats trimmed, everything HTML-escaped."""
    if isinstance(value, bool):
        value = "yes" if value else "no"
    elif isinstance(value, float):
        value = f"{value:.4g}"
    return f"<td>{escape(str(value))}</td>"


def _table(header: Sequence[str], rows: Iterable[str]) -> str:
    head = "".join(f"<th>{escape(str(h))}</th>" for h in header)
    body = "".join(rows)
    return f"<table><tr>{head}</tr>{body}</table>"


#: Columns of the per-store table (summary keys fall back to blank).
_STORE_COLS = ("store", "system", "events", "final_time", "policy", "seed",
               "makespan", "jobs", "completed", "failed", "shed")

#: Columns of the per-tenant SLO table.
_TENANT_COLS = ("runs", "submitted", "completed", "shed", "attainment",
                "latency_p50", "latency_p95", "latency_p99",
                "queue_wait_p95", "utilization")


def render_fleet_page(summary, title: str = "repro fleet") -> str:
    """One self-contained HTML page over a fleet rollup.

    ``summary`` is a :class:`~repro.obs.fleet.FleetSummary` or its
    ``to_dict()`` payload.  Pure server-side tables — the page needs no
    script beyond the JSON island (id ``fleet-data``) that carries the
    full rollup for downstream tooling and tests.
    """
    if isinstance(summary, FleetSummary):
        payload = summary.to_dict()
    else:
        payload = dict(summary)
    stores = payload.get("stores", [])
    tenants = payload.get("tenants", {})
    regressions = payload.get("regressions", [])
    totals = payload.get("totals", {})
    flagged = {r.get("to_store") for r in regressions}

    store_rows = []
    for row in stores:
        style = (
            ' style="color:var(--alert)"' if row.get("store") in flagged
            else ""
        )
        cells = "".join(_cell(row.get(col, "")) for col in _STORE_COLS)
        store_rows.append(f"<tr{style}>{cells}</tr>")

    tenant_rows = []
    for name in sorted(tenants):
        t = tenants[name]
        slo_miss = t.get("attainment", 1.0) < 1.0 or t.get("shed", 0) > 0
        style = ' style="color:var(--alert)"' if slo_miss else ""
        cells = _cell(name) + _cell(t.get("queue", ""))
        cells += "".join(_cell(t.get(col, "")) for col in _TENANT_COLS)
        tenant_rows.append(f"<tr{style}>{cells}</tr>")

    header, rows = snapshot_rows(payload.get("histograms", {}))
    metric_rows = [
        "<tr>" + "".join(_cell(v) for v in row) + "</tr>" for row in rows
    ]

    if regressions:
        reg_items = "".join(
            "<li>{}</li>".format(escape(
                f"[{r.get('kind')}] {r.get('system')}: "
                f"{r.get('from_store')} -> {r.get('to_store')} "
                f"({r.get('before'):.4g} -> {r.get('after'):.4g}, "
                f"x{r.get('ratio'):.3f})"
            ))
            for r in regressions
        )
        reg_panel = (
            '<div class="panel"><h2 style="color:var(--alert)">Regressions'
            f"</h2><ul style=\"color:var(--alert)\">{reg_items}</ul></div>"
        )
    else:
        reg_panel = (
            '<div class="panel"><h2>Regressions</h2>'
            '<div style="color:var(--ink-2)">none detected</div></div>'
        )

    sub = (
        f"{totals.get('stores', 0)} stores &middot; "
        f"{totals.get('events', 0)} events &middot; "
        f"{totals.get('jobs', 0)} jobs offered &middot; "
        f"{totals.get('completed', 0)} completed &middot; "
        f"root: {escape(str(payload.get('root', '')))} &middot; "
        f"generated by repro {__version__}"
    )
    return f"""<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<meta name="viewport" content="width=device-width, initial-scale=1">
<title>{escape(title)}</title>
<style>{_STYLE}</style>
</head>
<body>
<h1>{escape(title)}</h1>
<div class="sub">{sub}</div>
{reg_panel}
<div class="panel">
  <h2>Stores &mdash; one row per closed trace store (footer scan only)</h2>
  {_table(_STORE_COLS, store_rows)}
</div>
<div class="panel">
  <h2>Tenants &mdash; cross-run SLO rollup (worst-case percentiles)</h2>
  {_table(("tenant", "queue") + _TENANT_COLS, tenant_rows)}
</div>
<div class="panel">
  <h2>Merged histograms &mdash; duration-weighted percentiles</h2>
  {_table(header, metric_rows)}
</div>
<script type="application/json" id="fleet-data">{_island(payload)}</script>
</body>
</html>
"""


def write_fleet_page(
    path: Union[str, Path],
    summary,
    title: str = "repro fleet",
    pattern: str = "*.jsonl",
) -> Path:
    """Render the fleet page to ``path``.

    ``summary`` may be a ready :class:`~repro.obs.fleet.FleetSummary`
    (or its dict), or a store directory — the rollup is built here.
    """
    if isinstance(summary, (str, Path)):
        summary = fleet_summary(summary, pattern=pattern)
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(render_fleet_page(summary, title=title))
    return path
