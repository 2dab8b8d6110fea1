"""Analytical energy model: FLOPs, spike operations, and joule estimates.

A dense layer that would execute F multiply-accumulates (MACs) per forward
pass instead executes accumulate-only synaptic operations when its input
is a spike train; the expected count is

    SOPs = f_r * T * F

with f_r the firing rate of the layer's input (fraction of entries that
are active, i.e. nonzero), T the number of simulation steps, and F the
MAC count of the dense equivalent. The per-operation energies are the
45 nm CMOS figures: 4.6 pJ per MAC, 0.9 pJ per accumulate.

The total for the spiking model charges the MAC rate only for the two
real-valued stages (embedding and LM head); every block is charged at the
accumulate rate on its SOPs, attention and FFN tallied separately:

    E = E_MAC * (F_embed + F_head)
      + E_AC  * sum over layers (SOP_attn + SOP_ffn)

The dense baseline charges E_MAC on every stage and runs once (T plays no
role). FLOP counts here are MACs: a length-L sequence costs 4*L*d^2 for
the q/k/v/out projections, h*L^2*d_head each for scores and value mixing,
2*L*d*d_ff for the FFN, L*d*vocab for the head, and nothing for the
embedding lookup (a table read).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import ConfigError, ValidationError


@dataclass
class EnergyConstants:
    e_mac: float = 4.6e-12  # joules per multiply-accumulate
    e_ac: float = 0.9e-12   # joules per accumulate


@dataclass
class FlopCounts:
    """Dense MAC counts for one forward pass at a given sequence length."""

    embed: int
    head: int
    sfsa: list  # per layer
    sffn: list  # per layer

    def total(self) -> int:
        return self.embed + self.head + sum(self.sfsa) + sum(self.sffn)


def count_flops(cfg, seq_len: int) -> FlopCounts:
    """MACs of the dense equivalent; cfg needs d_model/n_heads/d_ff/... fields."""
    if seq_len < 1:
        raise ConfigError(f"seq_len must be >= 1, got {seq_len}")
    if seq_len > cfg.max_seq_len:
        raise ConfigError(f"seq_len {seq_len} exceeds max_seq_len {cfg.max_seq_len}")
    d, h, f, v = cfg.d_model, cfg.n_heads, cfg.d_ff, cfg.vocab_size
    l = seq_len
    d_head = d // h
    proj = 4 * l * d * d
    scores = h * l * l * d_head
    values = h * l * l * d_head
    attn = proj + scores + values
    ffn = 2 * l * d * f
    return FlopCounts(embed=0, head=l * d * v,
                      sfsa=[attn] * cfg.n_layers, sffn=[ffn] * cfg.n_layers)


def measure_firing_rates(trace) -> list:
    """Per-layer input firing rates [{'sfsa': r, 'sffn': r}, ...] from a trace:
    those of each block's two residual inputs, layerN.in and layerN.mid."""
    return [{"sfsa": trace.rate(f"layer{i}.in"), "sffn": trace.rate(f"layer{i}.mid")}
            for i in range(trace.n_layers)]


def sops(firing_rate: float, t_steps: int, flops: int) -> int:
    """Expected accumulate-only operations for one spiking sublayer."""
    if not 0.0 <= firing_rate <= 1.0:
        raise ValidationError(f"firing rate {firing_rate} out of [0, 1]")
    if t_steps < 1:
        raise ConfigError(f"t_steps must be >= 1, got {t_steps}")
    if flops < 0:
        raise ConfigError(f"flops must be >= 0, got {flops}")
    return int(round(firing_rate * t_steps * flops))


@dataclass
class LayerEnergy:
    sfsa_flops: int
    sffn_flops: int
    sfsa_rate: float
    sffn_rate: float
    sfsa_sops: int
    sffn_sops: int


@dataclass
class EnergyReport:
    seq_len: int
    t_steps: int
    e_mac: float
    e_ac: float
    embed_flops: int
    head_flops: int
    layers: list = field(default_factory=list)
    snn_energy_j: float = 0.0
    ann_energy_j: float = 0.0

    @property
    def snn_energy_mj(self) -> float:
        return self.snn_energy_j * 1e3

    @property
    def ann_energy_mj(self) -> float:
        return self.ann_energy_j * 1e3


def energy_report(cfg, trace) -> EnergyReport:
    """Full estimate for one profiled forward pass (trace from snn_forward)."""
    constants = EnergyConstants()
    flops = count_flops(cfg, trace.seq_len)
    rates = measure_firing_rates(trace)
    rep = EnergyReport(seq_len=trace.seq_len, t_steps=trace.t_steps,
                       e_mac=constants.e_mac, e_ac=constants.e_ac,
                       embed_flops=flops.embed, head_flops=flops.head)
    ac_ops = 0
    for i, r in enumerate(rates):
        le = LayerEnergy(
            sfsa_flops=flops.sfsa[i], sffn_flops=flops.sffn[i],
            sfsa_rate=r["sfsa"], sffn_rate=r["sffn"],
            sfsa_sops=sops(r["sfsa"], trace.t_steps, flops.sfsa[i]),
            sffn_sops=sops(r["sffn"], trace.t_steps, flops.sffn[i]))
        ac_ops += le.sfsa_sops + le.sffn_sops
        rep.layers.append(le)
    rep.snn_energy_j = constants.e_mac * (flops.embed + flops.head) + constants.e_ac * ac_ops
    rep.ann_energy_j = constants.e_mac * flops.total()
    return rep


def render_report(rep: EnergyReport) -> str:
    """Machine-parsable key: value lines; first line names the format."""
    lines = ["snn-energy-report v1"]
    lines.append(f"seq_len: {rep.seq_len}")
    lines.append(f"t_steps: {rep.t_steps}")
    lines.append(f"e_mac_pj: {rep.e_mac * 1e12:.6g}")
    lines.append(f"e_ac_pj: {rep.e_ac * 1e12:.6g}")
    lines.append(f"embed_flops: {rep.embed_flops}")
    lines.append(f"lmhead_flops: {rep.head_flops}")
    for i, le in enumerate(rep.layers):
        lines.append(f"layer{i}.sfsa.flops: {le.sfsa_flops}")
        lines.append(f"layer{i}.sfsa.firing_rate: {le.sfsa_rate:.10g}")
        lines.append(f"layer{i}.sfsa.sops: {le.sfsa_sops}")
        lines.append(f"layer{i}.sffn.flops: {le.sffn_flops}")
        lines.append(f"layer{i}.sffn.firing_rate: {le.sffn_rate:.10g}")
        lines.append(f"layer{i}.sffn.sops: {le.sffn_sops}")
    lines.append(f"snn_energy_mj: {rep.snn_energy_mj:.10g}")
    lines.append(f"ann_energy_mj: {rep.ann_energy_mj:.10g}")
    if rep.snn_energy_j > 0:
        lines.append(f"ann_to_snn_ratio: {rep.ann_energy_j / rep.snn_energy_j:.10g}")
    return "\n".join(lines) + "\n"


def parse_report(text: str) -> dict:
    """Read back a rendered report into {key: float-or-int} plus the version."""
    lines = text.strip().splitlines()
    if not lines or not lines[0].startswith("snn-energy-report"):
        raise ValidationError("not an energy report")
    out: dict = {"format": lines[0]}
    for line in lines[1:]:
        key, _, val = line.partition(":")
        val = val.strip()
        try:
            out[key.strip()] = int(val)
        except ValueError:
            try:
                out[key.strip()] = float(val)
            except ValueError:
                raise ValidationError(f"malformed energy report line: {line!r}") from None
    return out
