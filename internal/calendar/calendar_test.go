package calendar

import (
	"testing"
	"time"
)

func TestEpochProperties(t *testing.T) {
	// 1 Jan 2012 was a Sunday.
	if Weekday(0) != 0 {
		t.Errorf("day 0 weekday = %d, want 0 (Sunday)", Weekday(0))
	}
	if !IsWeekend(0) {
		t.Error("day 0 should be weekend")
	}
	if IsWeekend(2) { // Tuesday
		t.Error("day 2 should be a weekday")
	}
	if Month(0) != 0 || YearIndex(0) != 0 || DayOfYear(0) != 0 {
		t.Errorf("day 0 = month %d year %d doy %d", Month(0), YearIndex(0), DayOfYear(0))
	}
}

func TestLeapYear2012(t *testing.T) {
	// 2012 is a leap year: day 59 is Feb 29, day 60 is Mar 1.
	if got := Date(59); got.Month() != time.February || got.Day() != 29 {
		t.Errorf("day 59 = %v, want Feb 29", got)
	}
	if Month(60) != 2 {
		t.Errorf("day 60 month = %d, want 2 (March)", Month(60))
	}
	// Day 366 is 1 Jan 2013.
	if YearIndex(366) != 1 || Month(366) != 0 {
		t.Errorf("day 366 = year %d month %d", YearIndex(366), Month(366))
	}
}

func TestWeekdayCycles(t *testing.T) {
	for d := 0; d < 365; d++ {
		if Weekday(d) != (Weekday(0)+d)%7 {
			t.Fatalf("weekday not cyclic at day %d", d)
		}
	}
}

func TestNameTables(t *testing.T) {
	if len(WeekdayNames) != 7 || WeekdayNames[0] != "Sun" || WeekdayNames[6] != "Sat" {
		t.Errorf("WeekdayNames = %v", WeekdayNames)
	}
	if len(MonthNames) != 12 || MonthNames[0] != "Jan" || MonthNames[11] != "Dec" {
		t.Errorf("MonthNames = %v", MonthNames)
	}
}

func TestYearIndexAcrossWindow(t *testing.T) {
	// The 930-day window spans 2012 (366d), 2013 (365d), and part of 2014.
	if YearIndex(365) != 0 {
		t.Error("day 365 should still be 2012")
	}
	if YearIndex(366+364) != 1 {
		t.Error("day 730 should be 2013")
	}
	if YearIndex(731) != 2 {
		t.Error("day 731 should be 2014")
	}
}

func TestWeekOfYear(t *testing.T) {
	if WeekOfYear(0) != 0 || WeekOfYear(6) != 0 || WeekOfYear(7) != 1 {
		t.Errorf("week boundaries: %d %d %d", WeekOfYear(0), WeekOfYear(6), WeekOfYear(7))
	}
	// Day 364 of a leap year is week 52; the spill day clamps to 52.
	if WeekOfYear(364) != 52 || WeekOfYear(365) != 52 {
		t.Errorf("year-end weeks: %d %d", WeekOfYear(364), WeekOfYear(365))
	}
	// Resets with the new year.
	if WeekOfYear(366) != 0 {
		t.Errorf("new year week = %d", WeekOfYear(366))
	}
	names := WeekNames()
	if len(names) != 53 || names[0] != "W01" || names[52] != "W53" {
		t.Errorf("WeekNames = %v...", names[:2])
	}
}

// reference computes the calendar fields through package time: the
// oracle the integer arithmetic is held to.
func reference(day int) (weekday, month, yearIndex, dayOfYear int) {
	t := Date(day)
	return int(t.Weekday()), int(t.Month()) - 1, t.Year() - Epoch.Year(), t.YearDay() - 1
}

// TestCalendarMatchesTime compares every calendar field with the
// package-time reference for every day from 1190 to 2833: negative
// days, the century years 1900 (common), 2000 (leap) and 2100
// (common), and 29 February of every leap year in between.
func TestCalendarMatchesTime(t *testing.T) {
	const lo, hi = -300000, 300000
	leapDays := map[int]bool{}
	for day := lo; day <= hi; day++ {
		wd, m, y, doy := reference(day)
		if got := Weekday(day); got != wd {
			t.Fatalf("Weekday(%d) = %d, want %d", day, got, wd)
		}
		if got := Month(day); got != m {
			t.Fatalf("Month(%d) = %d, want %d", day, got, m)
		}
		if got := YearIndex(day); got != y {
			t.Fatalf("YearIndex(%d) = %d, want %d", day, got, y)
		}
		if got := DayOfYear(day); got != doy {
			t.Fatalf("DayOfYear(%d) = %d, want %d", day, got, doy)
		}
		if got, want := IsWeekend(day), wd == 0 || wd == 6; got != want {
			t.Fatalf("IsWeekend(%d) = %t, want %t", day, got, want)
		}
		if got, want := WeekOfYear(day), min(doy/7, 52); got != want {
			t.Fatalf("WeekOfYear(%d) = %d, want %d", day, got, want)
		}
		if d := Date(day); d.Month() == time.February && d.Day() == 29 {
			leapDays[d.Year()] = true
		}
	}
	first, last := Date(lo).Year(), Date(hi).Year()
	if first >= 1900 || last <= 2100 {
		t.Fatalf("window %d-%d misses a century year", first, last)
	}
	for y := first + 1; y < last; y++ {
		leap := time.Date(y, time.February, 29, 0, 0, 0, 0, time.UTC).Month() == time.February
		if leap != leapDays[y] {
			t.Errorf("year %d: leap %t, saw 29 Feb %t", y, leap, leapDays[y])
		}
	}
	for y, leap := range map[int]bool{1900: false, 2000: true, 2100: false} {
		if leapDays[y] != leap {
			t.Errorf("year %d: saw 29 Feb %t, want %t", y, leapDays[y], leap)
		}
	}
}

func BenchmarkMonth(b *testing.B) {
	sum := 0
	for i := 0; i < b.N; i++ {
		sum += Month(i % 930)
	}
	if sum < 0 {
		b.Fatal(sum)
	}
}
